package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ecoscale/internal/experiments"
	"ecoscale/internal/runner"
)

var update = flag.Bool("update", false, "rewrite docs/ecobench_output.txt")

// TestOutputGolden pins the full default ecobench output — every table of
// every scenario, as `go run ./cmd/ecobench` prints it — byte-for-byte
// against docs/ecobench_output.txt, so any drift in a reproduced number
// shows up as a reviewed diff. Regenerate with
//
//	go test ./cmd/ecobench -run TestOutputGolden -update
//
// and read the diff: every changed line is a changed result.
func TestOutputGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole experiment suite")
	}
	var buf bytes.Buffer
	if _, failures := runTables(&buf, experiments.Registry(), runner.Options{}, false, false); len(failures) > 0 {
		t.Fatalf("experiments failed: %v", failures)
	}

	golden := filepath.Join("..", "..", "docs", "ecobench_output.txt")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	gotLines := bytes.Split(buf.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q\n"+
				"run with -update if the change is intended", golden, i+1, g, w)
		}
	}
}
