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
