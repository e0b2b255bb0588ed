package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun smoke-tests the command end to end over the simulated world:
// the host list, one target (the detailed report, with its GeoJSON), and
// two targets (one line each plus the summary) — both through the one
// setup path.
func TestRun(t *testing.T) {
	var list bytes.Buffer
	if err := run([]string{"-list"}, &list); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(list.String()), "\n")
	if len(lines) != 51 {
		t.Fatalf("-list printed %d hosts, want 51", len(lines))
	}
	a, b := strings.Fields(lines[0])[0], strings.Fields(lines[1])[0]

	geo := filepath.Join(t.TempDir(), "region.json")
	var one bytes.Buffer
	if err := run([]string{"-target", a, "-geojson", geo}, &one); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"target          " + a + "\n", "landmarks       50 (", "contains truth  ", "target height   ", "geojson         " + geo} {
		if !strings.Contains(one.String(), want) {
			t.Errorf("-target output lacks %q:\n%s", want, one.String())
		}
	}
	if js, err := os.ReadFile(geo); err != nil || !bytes.Contains(js, []byte(`"Feature"`)) {
		t.Errorf("GeoJSON file: %v, %.80s", err, js)
	}

	var two bytes.Buffer
	if err := run([]string{"-targets", a + ", " + b + "," + a, "-parallel", "2"}, &two); err != nil {
		t.Fatal(err)
	}
	out := two.String()
	if !strings.HasPrefix(out, a) || !strings.Contains(out, "\n"+b) || !strings.Contains(out, "\n2 targets, 2 workers, 49 landmarks, ") {
		t.Errorf("-targets output:\n%s", out)
	}
	if strings.Contains(out, "point estimate") {
		t.Errorf("-targets of two printed the detailed report:\n%s", out)
	}
}

// TestRunErrors: a bad flag value or an unknown target is an error before
// anything is printed.
func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-disable", "heights,bogus"},
		{"-target", "no.such.host"},
		{"-targets", " , "},
		{"-probes", "x"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run %v succeeded, want an error", args)
		}
		if out.Len() != 0 {
			t.Errorf("run %v wrote to stdout before failing:\n%s", args, out.String())
		}
	}
}
