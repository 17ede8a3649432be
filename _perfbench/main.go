// Command perfbench is the repository benchmark. It drives the sharded
// simulation engine with one seeded closed-loop workload, checks every
// delivered block against the software AES reference in internal/aes,
// and prints as its last line one JSON object: the end-to-end metrics,
// or with -trace 1 the per-layer ledger of a separate traced run.
//
// The module lives in a directory of its own, outside the go tool's ./...
// patterns and the repository's source analyzers, because its timing
// wrappers read the wall clock inside Eval and Step by design. Build and
// run it through run.py, which compiles it against the enclosing checkout:
//
//	python3 _perfbench/run.py --workload ctr-bulk --seed 1 --seconds 10 --trace 0
//
// Workloads (all closed loop, two shards of 64 lanes):
//
//   - ctr-bulk: the encryptor core, one caller issuing Engine.CTR over
//     16 KiB messages. Full lane occupancy; the RTL tape and the lane
//     transposes dominate.
//   - small-requests: the combined core, two callers issuing
//     Engine.Process of 1..4 blocks, half of them decrypts. Lanes are
//     almost empty, so per-submission cost and queueing dominate.
//   - supervised-faults: the encryptor core under lockstep supervision,
//     one caller issuing Engine.EncryptECB over 16 KiB messages while a
//     seeded injector strikes flip-flops of the live shards. The only
//     workload on the netlist simulator, the lockstep shadow and the
//     supervisor's triage retry.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of the inputs, request sizes, enc/dec mix and strike schedule")
	seconds := fs.Float64("seconds", 10, "length of the measurement")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to, as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*seconds*float64(time.Second))+150*time.Second)
	defer cancel()

	b, err := newBench(w, *seed, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer b.eng.Close()
	notes := []string{fmt.Sprintf("workload=%s seed=%d seconds=%g trace=%d shards=%d callers=%d",
		w.name, *seed, *seconds, *trace, shards, w.callers)}
	var metrics map[string]metric
	var recs []callRecord
	if *trace == 0 {
		ph := b.window(ctx, time.Duration(*seconds*float64(time.Second)), false)
		recs = b.records(ph)
		metrics = b.endToEnd(ph, &notes)
	} else {
		spans := ""
		if *spansDir != "" {
			spans = filepath.Join(*spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		}
		metrics, recs, err = b.ledger(ctx, *seconds, *seed, spans, &notes)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	attempted, failed, _ := callTotals(recs)
	res := result{
		Correct:   failed == 0 && len(b.problems) == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}
	for _, p := range b.problems {
		notes = append(notes, "CHECK FAILED: "+p)
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		notes = append(notes, fmt.Sprintf("%-34s %14.6g %s", k, metrics[k].Value, metrics[k].Unit))
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, "# "+n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
