package experiments

// Property test for the content-addressed result cache: over a sample of
// scenarios, a warm-cache run must render byte-identically to both the
// cold run that populated the cache and an uncached baseline.

import (
	"context"
	"testing"

	"ecoscale/internal/cas"
	"ecoscale/internal/runner"
	"ecoscale/internal/trace"
)

func TestWarmCacheByteIdentical(t *testing.T) {
	// The sample holds the adversarial cases: R1 carries an explicit
	// point Key, E2 derives a column in Finalize from a gob-decoded
	// Value, and E7 carries critical-path share columns. E14 and R4 are
	// plain multi-point scenarios from two more scenario files.
	for _, id := range []string{"E2", "E7", "E14", "R1", "R4"} {
		t.Run(id, func(t *testing.T) {
			s, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()

			plain, err := runner.Run(ctx, s, runner.Options{Parallel: 4})
			if err != nil {
				t.Fatal(err)
			}

			mreg := trace.NewRegistry()
			store, err := cas.Open(cas.Options{Dir: t.TempDir(), Metrics: mreg})
			if err != nil {
				t.Fatal(err)
			}
			opts := runner.Options{Parallel: 4, Cache: store, CacheVersion: "prop/1"}
			cold, err := runner.Run(ctx, s, opts)
			if err != nil {
				t.Fatal(err)
			}
			misses := mreg.CounterTotal(cas.MetricMisses)
			if misses == 0 {
				t.Fatalf("%s: cold run recorded no cache misses — store not consulted?", id)
			}

			warm, err := runner.Run(ctx, s, opts)
			if err != nil {
				t.Fatal(err)
			}

			if got := mreg.CounterTotal(cas.MetricMisses); got != misses {
				t.Errorf("%s: warm runs missed the cache (%d misses after cold's %d)", id, got, misses)
			}
			if mreg.CounterTotal(cas.MetricHits) == 0 {
				t.Errorf("%s: warm runs recorded no cache hits", id)
			}

			if cold.String() != plain.String() {
				t.Errorf("%s: cold cached table differs from uncached baseline:\n--- uncached\n%s\n--- cold\n%s", id, plain, cold)
			}
			if warm.String() != plain.String() {
				t.Errorf("%s: warm table differs from uncached baseline:\n--- uncached\n%s\n--- warm\n%s", id, plain, warm)
			}
			if warm.CSV() != plain.CSV() {
				t.Errorf("%s: warm CSV differs from uncached baseline", id)
			}
		})
	}
}
