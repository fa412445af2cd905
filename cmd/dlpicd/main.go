// Command dlpicd is the campaign service daemon: it accepts campaign
// specs over HTTP (POST /campaigns), runs them on a bounded executor
// pool with journal-backed persistence, and streams per-cell progress
// (GET /campaigns/{id}/stream). Submissions are content-addressed, so
// resubmitting a spec — from any client, any number of times — joins
// the existing job instead of recomputing it, and trained model
// bundles are shared across jobs through fingerprint keying.
//
// SIGINT/SIGTERM drains gracefully: running campaigns stop at the next
// cell boundary with their completed cells journaled, and the next
// daemon start over the same -data directory resumes them. A kill -9
// loses at most the in-flight cells; the journal's resume contract
// makes the eventual results bit-identical either way.
//
// With -coordinator the daemon additionally mounts the distributed
// execution endpoints (/dist/claim, /dist/heartbeat, /dist/complete,
// GET /bundles/{fingerprint}) and jobs submitted with
// "distributed": true are fanned across dlpicworker processes under
// the lease protocol of internal/dist — same journal, same digest,
// workers merely execute. DL methods train in the daemon first (into
// the shared bundle store), then ship to workers as
// fingerprint-addressed, digest-verified model bundles; workers cache
// them on disk (-cache-dir) so a fleet downloads each bundle once per
// worker.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dlpic/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8350", "listen address")
	data := flag.String("data", "", "persistent data directory (specs, journals, results, model bundles); required")
	queue := flag.Int("queue", 8, "admission queue capacity (full queue refuses with 429)")
	executors := flag.Int("executors", 1, "concurrent campaign executors")
	workers := flag.Int("workers", 0, "sweep workers per campaign (0 = one per core)")
	trainWorkers := flag.Int("train-workers", 0, "training shard workers (0 = engine default)")
	coordinator := flag.Bool("coordinator", false, "enable distributed execution: mount /dist lease endpoints and run distributed:true jobs on remote dlpicworker processes")
	leaseTTL := flag.Duration("lease-ttl", 0, "distributed cell lease lifetime (0 = dist default); a worker silent this long forfeits its cell")
	flag.Parse()
	if err := run(*addr, serve.Config{
		DataDir: *data, QueueCap: *queue, Executors: *executors,
		SweepWorkers: *workers, TrainWorkers: *trainWorkers,
		Coordinator: *coordinator, LeaseTTL: *leaseTTL, Log: os.Stderr,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "dlpicd:", err)
		os.Exit(1)
	}
}

func run(addr string, cfg serve.Config) error {
	if cfg.DataDir == "" {
		return fmt.Errorf("-data is required")
	}
	d, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// A socket may not dawdle over its headers or idle forever between
	// requests. Deliberately no WriteTimeout (nor a whole-request
	// ReadTimeout): SSE status streams and parked worker claims are
	// long-lived responses by design.
	srv := &http.Server{
		Handler:           d.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "dlpicd: draining")
		d.Drain()
		srv.Shutdown(context.Background())
	}()
	fmt.Printf("dlpicd listening on %s (data %s)\n", ln.Addr(), cfg.DataDir)
	if err := srv.Serve(ln); err != http.ErrServerClosed {
		return err
	}
	fmt.Fprintln(os.Stderr, "dlpicd: drained, bye")
	return nil
}
