package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the ecosim goldens under testdata")

// runMainEnv, when set to 1, makes the test binary run ecosim's main on
// its arguments in place of the tests, so the golden runs drive the real
// command line: flag parsing, printing and the output files.
const runMainEnv = "ECOSIM_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runEcosim runs ecosim with args in dir and returns its standard output.
func runEcosim(t *testing.T, dir string, args ...string) []byte {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("ecosim %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

// goldenRuns are the pinned ecosim command lines. Each writes its trace
// and metrics files under relative names into a fresh directory.
var goldenRuns = []struct {
	name string
	args string
}{
	{"plain", "-nodes 4 -workers 8 -tasks 2000 -kernel fir -flowtrace -flowcap 200"},
	{"fault", "-nodes 4 -workers 8 -tasks 2000 -kernel fir -fault-mtbf 200us -fault-region-mtbf 300us " +
		"-fault-link-mtbf 100us -ckpt-interval 50us -profile -flowtrace -flowcap 200"},
	{"skew", "-sharing private -balance polling -skew"},
}

// TestEcosimGolden pins ecosim end to end: for each run in goldenRuns,
// stdout (report, -profile report, -flowtrace listing) and the -metrics
// text byte for byte under testdata/<run>.stdout and .prom, and the
// -trace and -metrics-json files as SHA-256 digests in .sha256 (they are
// too large to commit). Regenerate with
//
//	go test ./cmd/ecosim -run TestEcosimGolden -update
//
// and read the diff: every changed line is a changed result.
func TestEcosimGolden(t *testing.T) {
	for _, run := range goldenRuns {
		t.Run(run.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append(strings.Fields(run.args),
				"-trace", "t.json", "-metrics", "m.prom", "-metrics-json", "m.json")
			stdout := runEcosim(t, dir, args...)
			read := func(name string) []byte {
				b, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			var digests bytes.Buffer
			for _, name := range []string{"t.json", "m.json"} {
				fmt.Fprintf(&digests, "%x  %s\n", sha256.Sum256(read(name)), name)
			}
			base := filepath.Join("testdata", run.name)
			checkGolden(t, base+".stdout", stdout)
			checkGolden(t, base+".prom", read("m.prom"))
			checkGolden(t, base+".sha256", digests.Bytes())
		})
	}
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update. A mismatch names the first differing line.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := bytes.Split(got, []byte("\n"))
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
				"run with -update if the change is intended", path, i+1, g, w)
		}
	}
}

// TestFlowcap: a -flowtrace listing cut at -flowcap ends with one line
// naming how many events it left out, and -flowcap 0 prints every event:
// more than 10,000 for this run, so no retention bound may hide any.
func TestFlowcap(t *testing.T) {
	const header = "== layer interaction flow (Fig. 5) ==\n"
	listing := func(flowcap string) []string {
		out := runEcosim(t, t.TempDir(), "-nodes", "4", "-workers", "8", "-tasks", "4000",
			"-kernel", "fir", "-flowtrace", "-flowcap", flowcap)
		_, l, ok := strings.Cut(string(out), header)
		if !ok {
			t.Fatalf("-flowcap %s: no listing in\n%s", flowcap, out)
		}
		return strings.Split(strings.TrimSuffix(l, "\n"), "\n")
	}
	cut := listing("10")
	var omitted int
	if len(cut) != 11 {
		t.Fatalf("-flowcap 10 printed %d lines, want 10 and a footer", len(cut))
	}
	if _, err := fmt.Sscanf(cut[10], "... %d more events not shown", &omitted); err != nil {
		t.Fatalf("-flowcap 10 footer %q: %v", cut[10], err)
	}
	all := listing("0")
	if len(all) != 10+omitted || len(all) <= 10000 {
		t.Errorf("-flowcap 0 printed %d lines, want 10 + %d omitted (> 10000)", len(all), omitted)
	}
	if strings.Contains(all[len(all)-1], "not shown") {
		t.Errorf("-flowcap 0 listing ends with a footer: %q", all[len(all)-1])
	}
}
