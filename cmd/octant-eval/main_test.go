package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunFigures smoke-tests the figure paths end to end over the
// simulated deployment: each run must print its figure's heading and
// nothing of the others'.
func TestRunFigures(t *testing.T) {
	cases := []struct {
		args      []string
		want, not string
	}{
		{[]string{"-fig", "2"}, "Figure 2", "Figure 3"},
		// ucsb (target 17) lies outside its region.
		{[]string{"-fig", "3", "-step", "17"}, "Octant     region contained truth for 2/3 targets", "Figure 4"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if err := run(c.args, &out); err != nil {
			t.Fatalf("run %v: %v", c.args, err)
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("run %v: output lacks %q:\n%s", c.args, c.want, out.String())
		}
		if strings.Contains(out.String(), c.not) {
			t.Errorf("run %v: output has %q, which belongs to another figure", c.args, c.not)
		}
	}
}

// TestRunRejectsBadFlags pins that a flag error stops the command before
// any evaluation runs: -bulk and -cluster were removed with the second
// perf gate, and a script still passing them must fail loudly instead of
// silently regenerating figures.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-bulk"},
		{"-cluster"},
		{"-step", "x"},
		{"-fig", "5"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil {
			t.Errorf("run %v succeeded, want a usage error", args)
		}
		if out.Len() != 0 {
			t.Errorf("run %v wrote to stdout before failing:\n%s", args, out.String())
		}
	}
}

// TestHintsGate is the hint-evidence accuracy gate: truthful hints must
// not worsen the median error, poisoned ones must be dropped by RTT
// cross-validation and cost at most 10 %. run returns the gate's error.
func TestHintsGate(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-hints"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "hints: gates OK") {
		t.Errorf("no gate verdict in output:\n%s", out.String())
	}
	if strings.Contains(out.String(), "Benchmark") {
		t.Errorf("hints mode still prints bench-format lines:\n%s", out.String())
	}
}
