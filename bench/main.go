// Command bench is the repository's serve-path benchmark: it builds a
// workload's fleet in-process over real loopback listeners, drives it
// from two closed-loop clients through the client's own HTTP loader,
// checks every output, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer ledger). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// rounds is what the contract's result line has no key for: per round,
	// every metric, the sample counts behind it and the calibration run.
	// main prints it, with the workload, the seed and GOMAXPROCS, as a line
	// of its own before the result.
	rounds []roundResult
}

func main() {
	workload := flag.String("workload", "", "hit_1n | miss_1n | peer_hit_3n | cold_attest_3n")
	seed := flag.Int64("seed", 1, "seeds the corpus and the request order")
	seconds := flag.Float64("seconds", 24, "measured time, split over the rounds")
	trace := flag.Int("trace", 0, "1 = traced run: print the per-layer metrics instead")
	flag.Parse()
	def, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace != 0 {
		res, err = runTraced(def, *seed, dur, "bench/out")
	} else {
		res, err = runEndToEnd(def, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", def.name, err)
		os.Exit(1)
	}
	line, _ := json.Marshal(map[string]any{
		"workload": def.name, "seed": *seed, "gomaxprocs": runtime.GOMAXPROCS(0), "rounds": res.rounds,
	})
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
