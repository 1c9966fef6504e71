package main

import (
	"strings"
	"testing"
)

func TestCheckWorkload(t *testing.T) {
	for _, c := range []struct {
		n, tasks, flowCap int
		want              string // "" = accepted
	}{
		{1024, 32, 40, ""},
		{1, 0, 0, ""},
		{0, 32, 40, "-n 0"},
		{-5, 32, 40, "-n -5"},
		{64, -1, 40, "-tasks -1"},
		{64, 32, -1, "-flowcap -1"},
	} {
		err := checkWorkload(c.n, c.tasks, c.flowCap)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("n=%d tasks=%d flowcap=%d rejected: %v", c.n, c.tasks, c.flowCap, err)
		case c.want != "" && err == nil:
			t.Errorf("n=%d tasks=%d flowcap=%d accepted, want an error naming %q", c.n, c.tasks, c.flowCap, c.want)
		case c.want != "" && (!strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n")):
			t.Errorf("n=%d tasks=%d flowcap=%d: error %q should be one line naming %q", c.n, c.tasks, c.flowCap, err, c.want)
		}
	}
}
