package main

import (
	"math"
	"strings"
	"testing"
)

func TestCheckSize(t *testing.T) {
	for _, c := range []struct {
		n    float64
		want string // "" = accepted
	}{
		{256, ""},
		{1e300, ""}, // finite: the estimator reports the overflow instead
		{0, "-n 0"},
		{-5, "-n -5"},
		{math.NaN(), "-n NaN"},
		{math.Inf(1), "-n +Inf"},
	} {
		err := checkSize(c.n)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("n=%g rejected: %v", c.n, err)
		case c.want != "" && err == nil:
			t.Errorf("n=%g accepted, want an error naming %q", c.n, c.want)
		case c.want != "" && (!strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n")):
			t.Errorf("n=%g: error %q should be one line naming %q", c.n, err, c.want)
		}
	}
}

func TestCheckDirectives(t *testing.T) {
	for _, c := range []struct {
		unroll, ports, share, budget int
		want                         string // "" = accepted
	}{
		{1, 1, 1, 0, ""},
		{8, 4, 2, 3, ""},
		{-2, 1, 1, 0, "-unroll -2"},
		{0, 1, 1, 0, "-unroll 0"},
		{1, 0, 1, 0, "-ports 0"},
		{1, 1, 0, 0, "-share 0"},
		{1, 1, 1, -3, "-budget -3"},
	} {
		err := checkDirectives(c.unroll, c.ports, c.share, c.budget)
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
