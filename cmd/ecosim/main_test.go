package main

import (
	"strings"
	"testing"
	"time"
)

func TestCheckWorkload(t *testing.T) {
	for _, c := range []struct {
		n, tasks, flowCap, unroll, ports int
		profileInt                       time.Duration
		want                             string // "" = accepted
	}{
		{1024, 32, 40, 8, 8, 0, ""},
		{1, 0, 0, 1, 1, time.Microsecond, ""},
		{0, 32, 40, 8, 8, 0, "-n 0"},
		{-5, 32, 40, 8, 8, 0, "-n -5"},
		{64, -1, 40, 8, 8, 0, "-tasks -1"},
		{64, 32, -1, 8, 8, 0, "-flowcap -1"},
		{64, 32, 40, -3, 8, 0, "-unroll -3"},
		{64, 32, 40, 0, 8, 0, "-unroll 0"},
		{64, 32, 40, 8, 0, 0, "-ports 0"},
		{64, 32, 40, 8, -1, 0, "-ports -1"},
		{64, 32, 40, 8, 8, -5 * time.Microsecond, "-profile-interval -5µs"},
	} {
		err := checkWorkload(c.n, c.tasks, c.flowCap, c.unroll, c.ports, c.profileInt)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v rejected: %v", c, err)
		case c.want != "" && err == nil:
			t.Errorf("%+v accepted, want an error naming %q", c, c.want)
		case c.want != "" && (!strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n")):
			t.Errorf("%+v: error %q should be one line naming %q", c, err, c.want)
		}
	}
}
