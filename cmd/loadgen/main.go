// Command loadgen drives mixed single-answer JSON and batched binary
// ingest traffic against a running truthserve and reports what the
// server sustained. It is the CI smoke driver for the batched ingest
// path: -require-min-rate fails the run if the accepted answers/sec
// floor is not met, and -require-backpressure fails it if the server
// never shed load with 429 + Retry-After (i.e. backpressure never
// engaged under the offered overload).
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8080 [-project default]
//	        [-workers 4] [-duration 5s] [-single-ratio 0]
//	        [-batch 500] [-frames 4] [-tasks 2000] [-task-workers 200]
//	        [-seed 1] [-honor-retry-after] [-json]
//	        [-require-min-rate 0] [-require-backpressure]
//	        [-version]
//
// Exit status: 0 on success, 1 when a -require-* gate fails or the
// run itself errored, 2 on bad flags.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"truthinference/internal/buildinfo"
	"truthinference/internal/loadgen"
)

func main() {
	var cfg loadgen.Config
	var jsonOut, requireBackpressure, version bool
	var requireMinRate float64
	flag.StringVar(&cfg.BaseURL, "url", "http://127.0.0.1:8080", "truthserve base URL")
	flag.StringVar(&cfg.Project, "project", "default", "project id on a truthserve daemon (empty = the bare /v1/... routes of a lone service handler)")
	flag.IntVar(&cfg.Workers, "workers", 4, "concurrent client goroutines")
	flag.DurationVar(&cfg.Duration, "duration", 5*time.Second, "how long to drive traffic")
	flag.Float64Var(&cfg.SingleRatio, "single-ratio", 0, "fraction of requests sent as single-answer JSON POSTs (0 = all batched)")
	flag.IntVar(&cfg.BatchSize, "batch", 500, "answers per frame on the batched path")
	flag.IntVar(&cfg.FramesPerRequest, "frames", 4, "frames per batched request")
	flag.IntVar(&cfg.NumTasks, "tasks", 2000, "generated task id space")
	flag.IntVar(&cfg.NumWorkers, "task-workers", 200, "generated worker id space")
	flag.Int64Var(&cfg.Seed, "seed", 1, "traffic seed")
	flag.BoolVar(&cfg.HonorRetryAfter, "honor-retry-after", false, "sleep out the server's Retry-After after each 429 instead of hammering")
	flag.BoolVar(&jsonOut, "json", false, "emit the result as JSON on stdout")
	flag.Float64Var(&requireMinRate, "require-min-rate", 0, "exit 1 unless accepted answers/sec reaches this floor (0 = no gate)")
	flag.BoolVar(&requireBackpressure, "require-backpressure", false, "exit 1 unless the server shed at least one request with 429")
	flag.BoolVar(&version, "version", false, "print build info and exit")
	flag.Parse()
	if version {
		fmt.Println(buildinfo.String("loadgen"))
		return
	}

	res, err := cfg.Run(context.Background())
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(2)
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(res)
	} else {
		fmt.Printf("loadgen: %.1fs  requests=%d (single=%d batch=%d)  accepted=%d answers (%.0f/s)  shed=%d (%d answers)  errors=%d\n",
			res.Elapsed.Seconds(), res.Requests, res.SingleRequests, res.BatchRequests,
			res.AnswersAccepted, res.AnswersPerSec, res.Shed, res.AnswersShed, res.Errors)
		if res.LastVersion > 0 {
			fmt.Printf("loadgen: server version %d, durable through %d\n", res.LastVersion, res.LastDurable)
		}
		if s := res.SingleLatency; s != nil {
			fmt.Printf("loadgen: single latency  n=%d  p50=%.2fms p95=%.2fms p99=%.2fms\n", s.Count, s.P50Ms, s.P95Ms, s.P99Ms)
		}
		if b := res.BatchLatency; b != nil {
			fmt.Printf("loadgen: batch latency   n=%d  p50=%.2fms p95=%.2fms p99=%.2fms\n", b.Count, b.P50Ms, b.P95Ms, b.P99Ms)
		}
	}

	failed := false
	if res.Errors > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: %d request errors (first: %s)\n", res.Errors, res.FirstError)
		failed = true
	}
	if res.RetryAfterMissing > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: %d of %d 429 responses lacked a Retry-After header\n", res.RetryAfterMissing, res.Shed)
		failed = true
	}
	if requireMinRate > 0 && res.AnswersPerSec < requireMinRate {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: sustained %.0f answers/s, below the required floor %.0f\n", res.AnswersPerSec, requireMinRate)
		failed = true
	}
	if requireBackpressure && res.Shed == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: FAIL: backpressure never engaged (no 429 observed under the offered load)")
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
