// Command perfbench is the repository benchmark: three workloads (paper,
// fleet, serve) that measure what a user of unimem waits for, and a traced
// run that breaks the time down by layer. See README.md.
//
//	go run . --workload paper --seed 3335 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it print the
// same metrics for people.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// defaultSeed is the experiment suite's own seed (exp.NewSuite); its
// output digests are committed in reference.json.
const defaultSeed = 0xD07

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *report) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation.
func (r *report) fail(format string, args ...interface{}) {
	r.Failed++
	r.note("FAILED: "+format, args...)
}

func (r *report) print() {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-26s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	b, _ := json.Marshal(r) // only strings, bools and finite numbers
	fmt.Println(string(b))
}

func main() {
	workload := flag.String("workload", "", "paper, fleet or serve")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 20, "measuring time")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	serveBin := flag.String("serve-bin", "", "unimem-serve binary (serve workload)")
	probe := flag.Bool("setup-probe", false, "run the workload's set-up and exit (set-up timing)")
	flag.Parse()

	if *probe {
		sessionStart(*workload, *seed)
		return
	}

	dur := time.Duration(*seconds * float64(time.Second))
	var rep *report
	var err error
	switch *workload {
	case "paper", "fleet":
		rep, err = runEngine(*workload, *seed, dur, *trace == 1)
	case "serve":
		rep, err = runServe(*serveBin, *seed, dur, *trace == 1)
	default:
		err = fmt.Errorf("unknown workload %q (want paper, fleet or serve)", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print()
}
