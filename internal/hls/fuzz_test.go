package hls_test

// Fuzz targets for the kernel-source surface: source reaches the HLS
// front end from users through ecohls and the OpenCL layer, so parsing,
// printing, synthesis and interpretation must fail with an error, never
// a panic or a hang. The seed corpus (every library kernel plus the
// parser tests' sources) runs under plain `go test`; `make fuzz` mutates
// from it.

import (
	"strings"
	"testing"

	"ecoscale/internal/hls"
	"ecoscale/internal/workload"
)

func addKernelSeeds(f *testing.F) {
	for _, w := range workload.Registry() {
		f.Add(w.Source)
	}
	for _, src := range hls.ParserTestSources() {
		f.Add(src)
	}
}

// FuzzParse: Parse never panics; an accepted kernel prints to a fixed
// point (Print → Parse → Print reproduces the first print) and
// synthesizes under the default directives without panicking.
func FuzzParse(f *testing.F) {
	addKernelSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		k, err := hls.Parse(src)
		if err != nil {
			return
		}
		p1 := hls.Print(k)
		k2, err := hls.Parse(p1)
		if err != nil {
			t.Fatalf("printed kernel does not reparse: %v\n%s", err, p1)
		}
		if p2 := hls.Print(k2); p2 != p1 {
			t.Fatalf("Print is not a fixed point:\n--- first\n%s\n--- second\n%s", p1, p2)
		}
		_, _ = hls.Synthesize(k, hls.DefaultDirectives())
	})
}

// FuzzRun: an accepted kernel, run on small buffers under a tight
// iteration budget, returns stats or an error. A second run on fresh
// arguments, and a run of the kernel reparsed from its printed form,
// give the same stats, buffers and error text: the compiled program
// carries no state between runs and depends only on the AST.
func FuzzRun(f *testing.F) {
	addKernelSeeds(f)
	f.Cleanup(hls.SetMaxIterations(1 << 12))
	f.Fuzz(func(t *testing.T, src string) {
		// Each local array may take up to 8 MiB; cap how many one input
		// can declare so the fuzzer's memory stays small.
		if strings.Count(src, "local") > 4 {
			t.Skip()
		}
		k, err := hls.Parse(src)
		if err != nil {
			return
		}
		first := fuzzRun(k)
		if again := fuzzRun(k); again != first {
			t.Fatalf("second run differs:\n%+v\n%+v", first, again)
		}
		k2, err := hls.Parse(hls.Print(k))
		if err != nil {
			t.Fatalf("printed kernel does not reparse: %v", err)
		}
		if printed := fuzzRun(k2); printed != first {
			t.Fatalf("reparsed kernel runs differently:\n%+v\n%+v\n%s", first, printed, hls.Print(k))
		}
	})
}

type fuzzResult struct {
	stats hls.RunStats
	sum   uint64 // bufSum of the arguments after the run
	err   string
}

// fuzzRun runs k on fresh small arguments.
func fuzzRun(k *hls.Kernel) fuzzResult {
	args := make([]hls.Value, len(k.Params))
	for i, p := range k.Params {
		if !p.IsBuffer {
			args[i] = hls.S(4)
			continue
		}
		buf := make([]float64, 64)
		for j := range buf {
			buf[j] = float64(j%5 - 1)
		}
		args[i] = hls.B(buf)
	}
	st, err := hls.Run(k, args)
	r := fuzzResult{stats: st, sum: bufSum(args)}
	if err != nil {
		r.err = err.Error()
	}
	return r
}
