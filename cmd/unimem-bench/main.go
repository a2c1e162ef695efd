// Command unimem-bench regenerates the paper's evaluation tables and
// figures. Each experiment prints the same rows/series the paper reports,
// normalized to DRAM-only execution time.
//
// Rendered tables go to stdout; progress, timing and the run-cache summary
// go to stderr, so stdout is byte-identical between serial and parallel
// runs of the same experiments.
//
// Usage:
//
//	unimem-bench -list
//	unimem-bench -exp fig9
//	unimem-bench -exp all -class C -ranks 4
//	unimem-bench -exp all -quick -parallel
//	unimem-bench -exp fig9,table4 -workers 8 -json results.json
//	unimem-bench -exp table4 -csv out.csv
//	unimem-bench -exp scenariofleet -quick -fleet 8 -parallel
//	unimem-bench -exp all -parallel -timeout 10m
//	unimem-bench -bench mpisim -quick -bench-out BENCH_mpisim.json
//	unimem-bench -bench serve -quick -bench-out BENCH_serve.json
//	unimem-bench -bench fastpath -quick -check
//
// -timeout bounds the whole run: on expiry, in-flight simulated worlds
// abort, the partial cache statistics are printed to stderr, and the
// process exits nonzero.
//
// -bench mpisim switches to the simulator micro/macro benchmark mode: it
// runs ping-pong, allreduce at 64/1k/10k ranks and the CG/SP/MG comm
// skeletons on the event-driven mpisim core and (where its ranks²
// allocation is feasible) the retired goroutine oracle engine, and writes
// the before/after comparison to -bench-out as JSON — the repo's perf
// trajectory artifact. A 10k-rank world that cannot complete fails the
// run, which is the scale gate CI enforces.
//
// -bench serve measures the HTTP observability layer's request-path
// overhead: matched cache-hit request storms against a metrics-disabled
// and a metrics-enabled server, reported as a relative slowdown — the
// ≤2% budget artifact (BENCH_serve.json).
//
// -bench fastpath measures the steady-state fast path's wall-clock speedup
// over exact event-driven simulation on long stationary runs, while
// differentially verifying the two produce identical results — the
// BENCH_fastpath.json artifact. -check gates the worst cell against an
// absolute speedup floor and fails on any result divergence.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"unimem/internal/exp"
	"unimem/internal/mpisim/simprog"
	"unimem/internal/serve"
)

// summary is the machine-readable run report of the JSON output mode.
type summary struct {
	Experiments []string `json:"experiments"`
	Class       string   `json:"class"`
	Ranks       int      `json:"ranks"`
	Seed        uint64   `json:"seed"`
	Quick       bool     `json:"quick"`
	Workers     int      `json:"workers"`
	CacheHits   int64    `json:"cache_hits"`
	CacheMisses int64    `json:"cache_misses"`
	CacheRuns   int      `json:"cache_entries"`
}

// document is the top-level JSON output: every regenerated table plus the
// run summary.
type document struct {
	Tables  []*exp.Table `json:"tables"`
	Summary summary      `json:"summary"`
}

// writeBenchDoc encodes a benchmark document to out ("-" for stdout, ""
// to skip writing — the -check default).
func writeBenchDoc(doc interface{}, out string) error {
	if out == "" {
		return nil
	}
	f := os.Stdout
	if out != "-" {
		var err error
		if f, err = os.Create(out); err != nil {
			return err
		}
		defer f.Close()
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// runBenchMode dispatches -bench: "mpisim" runs the simulator
// micro/macro benchmarks on both engines, "serve" runs the HTTP
// observability-overhead comparison. Progress goes to stderr; stdout
// stays silent (the experiment-golden discipline).
func runBenchMode(mode string, quick bool, out string, check bool, baseline string) int {
	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	start := time.Now()
	switch mode {
	case "mpisim":
		doc, err := simprog.RunBenchSuite(quick, logf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := writeBenchDoc(doc, out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "%d benchmark cells in %v; per-core speedups event-vs-oracle: %v\n",
			len(doc.Results), time.Since(start).Round(time.Millisecond), doc.SpeedupPerCore)
		if check {
			return runCheck(mode, doc, baseline)
		}
		return 0
	case "serve":
		doc, err := serve.RunServeBench(quick, logf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := writeBenchDoc(doc, out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "serve bench done in %v; metrics overhead %.2f%%\n",
			time.Since(start).Round(time.Millisecond), doc.OverheadPct)
		if check {
			return runCheck(mode, doc, baseline)
		}
		return 0
	case "fastpath":
		doc, err := exp.RunFastpathBench(quick, logf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := writeBenchDoc(doc, out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "fastpath bench done in %v; worst-cell speedup %.1fx\n",
			time.Since(start).Round(time.Millisecond), doc.MinSpeedup)
		if check {
			return runCheck(mode, doc, baseline)
		}
		return 0
	default:
		fmt.Fprintf(os.Stderr, "unknown -bench mode %q (want mpisim, serve or fastpath)\n", mode)
		return 2
	}
}

func main() {
	var (
		expID     = flag.String("exp", "all", "experiment id (see -list), comma-separated list, or 'all'")
		class     = flag.String("class", "C", "NPB class for the basic tests (A/B/C/D)")
		ranks     = flag.Int("ranks", 4, "MPI world size")
		seed      = flag.Uint64("seed", 0xD07, "deterministic seed")
		quick     = flag.Bool("quick", false, "cap iteration counts (fast, less faithful)")
		fleet     = flag.Int("fleet", 0, "scenarios per archetype for -exp scenariofleet (0: default 4)")
		parallel  = flag.Bool("parallel", false, "fan experiment cells across GOMAXPROCS workers")
		workersN  = flag.Int("workers", 0, "worker-pool width (overrides -parallel; 1 = serial)")
		csv       = flag.String("csv", "", "also write results as CSV to this file")
		jsonOut   = flag.String("json", "", "write results as JSON to this file ('-' for stdout, suppressing tables)")
		timeout   = flag.Duration("timeout", 0, "abort the whole run after this duration (0: no limit)")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		bench     = flag.String("bench", "", "benchmark mode instead of experiments: 'mpisim' (engine), 'serve' (HTTP observability overhead) or 'fastpath' (analytic fast-path speedup)")
		benchOut  = flag.String("bench-out", "", "benchmark JSON destination for -bench (default BENCH_<mode>.json)")
		check     = flag.Bool("check", false, "with -bench: gate the fresh run against the committed baseline and exit 1 on regression")
		checkBase = flag.String("check-baseline", "", "baseline JSON for -check (default BENCH_<mode>.json)")
	)
	flag.Parse()

	if *check && *bench == "" {
		fmt.Fprintln(os.Stderr, "-check requires -bench mpisim, serve or fastpath")
		os.Exit(2)
	}
	if *bench != "" {
		out := *benchOut
		if out == "" && !*check {
			// In -check mode the default is to write nothing: the committed
			// BENCH_<mode>.json is the baseline being compared against, and
			// defaulting the output onto it would overwrite the baseline
			// before the comparison reads it.
			out = "BENCH_" + *bench + ".json"
		}
		baseline := *checkBase
		if baseline == "" {
			baseline = "BENCH_" + *bench + ".json"
		}
		if *check && out == baseline {
			fmt.Fprintf(os.Stderr, "-bench-out and -check-baseline are both %s; the fresh run would overwrite its own baseline\n", out)
			os.Exit(2)
		}
		os.Exit(runBenchMode(*bench, *quick, out, *check, baseline))
	}

	order, reg := exp.Registry()
	if *list {
		for _, id := range order {
			fmt.Println(id)
		}
		return
	}

	workers := 1
	switch {
	case *workersN > 0:
		workers = *workersN
	case *parallel:
		workers = runtime.GOMAXPROCS(0)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	s := exp.NewSuite()
	s.Class = *class
	s.Ranks = *ranks
	s.Seed = *seed
	s.Quick = *quick
	s.Fleet = *fleet
	s.Workers = workers
	s.Ctx = ctx

	var ids []string
	if *expID == "all" {
		ids = order
	} else {
		for _, id := range strings.Split(*expID, ",") {
			if _, ok := reg[id]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	var csvOut *os.File
	if *csv != "" {
		f, err := os.Create(*csv)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		csvOut = f
	}

	// Open the JSON destination up front so a bad path fails before the
	// experiments run, like -csv does.
	jsonFile := os.Stdout
	if *jsonOut != "" && *jsonOut != "-" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		jsonFile = f
	}

	renderTables := *jsonOut != "-"
	var tables []*exp.Table
	start := time.Now()
	for _, id := range ids {
		expStart := time.Now()
		t, err := reg[id](s)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				stats := s.CacheStats()
				fmt.Fprintf(os.Stderr, "%s: timed out after %v (%v); partial cache: %d hits, %d misses (%d runs memoized)\n",
					id, *timeout, err, stats.Hits, stats.Misses, stats.Entries)
				os.Exit(3)
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		tables = append(tables, t)
		if renderTables {
			t.Render(os.Stdout)
		}
		fmt.Fprintf(os.Stderr, "  (%s regenerated in %v)\n", id, time.Since(expStart).Round(time.Millisecond))
		if csvOut != nil {
			fmt.Fprintf(csvOut, "# %s: %s\n", t.ID, t.Title)
			if err := t.WriteCSV(csvOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintln(csvOut)
		}
	}

	stats := s.CacheStats()
	fmt.Fprintf(os.Stderr, "%d experiment(s) in %v; workers=%d; baseline cache: %d hits, %d misses (%d runs memoized)\n",
		len(ids), time.Since(start).Round(time.Millisecond),
		workers, stats.Hits, stats.Misses, stats.Entries)

	if *jsonOut != "" {
		doc := document{
			Tables: tables,
			Summary: summary{
				Experiments: ids,
				Class:       *class,
				Ranks:       *ranks,
				Seed:        *seed,
				Quick:       *quick,
				Workers:     workers,
				CacheHits:   stats.Hits,
				CacheMisses: stats.Misses,
				CacheRuns:   stats.Entries,
			},
		}
		enc := json.NewEncoder(jsonFile)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
