package main

import (
	"strings"
	"testing"
)

func TestCheckWorkload(t *testing.T) {
	for _, c := range []struct {
		n, tasks int
		want     string // "" = accepted
	}{
		{1024, 32, ""},
		{1, 0, ""},
		{0, 32, "-n 0"},
		{-5, 32, "-n -5"},
		{64, -1, "-tasks -1"},
	} {
		err := checkWorkload(c.n, c.tasks)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("n=%d tasks=%d rejected: %v", c.n, c.tasks, err)
		case c.want != "" && err == nil:
			t.Errorf("n=%d tasks=%d accepted, want an error naming %q", c.n, c.tasks, c.want)
		case c.want != "" && (!strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n")):
			t.Errorf("n=%d tasks=%d: error %q should be one line naming %q", c.n, c.tasks, err, c.want)
		}
	}
}
