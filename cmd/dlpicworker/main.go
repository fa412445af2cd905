// Command dlpicworker is the distributed campaign worker: it claims
// leased cells from a coordinator-mode dlpicd (-coordinator URL),
// executes them with the sweep engine, heartbeats to keep its lease
// alive, and reports results back for journaling by the coordinator.
// Workers never write the journal, so a worker may be kill -9'd,
// SIGSTOPped past its lease, or disconnected at any instant without
// hurting the campaign — its cells are simply re-leased elsewhere and
// the final digest is bit-identical to a serial run.
//
// Model-free methods (traditional, oracle) execute from the worker's
// built-in registry. DL methods (mlp, cnn) require -cache-dir: their
// trained model bundles ship from the coordinator on first use —
// fingerprint-addressed, digest-verified — and land in the worker's
// on-disk LRU cache, so a fleet downloads each bundle once per worker
// rather than once per cell. -claim-batch asks the coordinator for up
// to k cells per claim round-trip (completion stays per-cell).
// -fault injects a deterministic, seed-keyed fault schedule on the RPC
// boundary (see dist.ParseFaultPlan; kind-scoped fields like
// bundle.drop=0.5 target one RPC kind) for chaos testing.
// SIGINT/SIGTERM stops gracefully between cells: an in-flight cell
// finishes and reports before the worker exits.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"dlpic/internal/dist"
	"dlpic/internal/experiments"
)

func main() {
	coordinator := flag.String("coordinator", "http://127.0.0.1:8350", "coordinator base URL (a dlpicd started with -coordinator)")
	id := flag.String("id", "", "worker id (required; lands in lease ids and coordinator logs)")
	methods := flag.String("methods", "traditional,oracle", "comma-separated method names this worker can execute (mlp/cnn need -cache-dir)")
	poll := flag.Duration("poll", 200*time.Millisecond, "floor of the backoff between RPC retries, and the idle claim period against a coordinator that gives no retry hint (the coordinator holds idle claims itself)")
	fault := flag.String("fault", "", "injected RPC fault plan, e.g. seed=7,drop=0.2,bundle.delay=1:2s (empty = none)")
	once := flag.Bool("once", false, "exit when the coordinator reports all jobs done instead of waiting for new ones")
	cacheDir := flag.String("cache-dir", "", "on-disk model-bundle cache directory (required for DL methods)")
	cacheMax := flag.Int("cache-max", dist.DefaultCacheEntries, "bundle cache capacity (LRU entries)")
	claimBatch := flag.Int("claim-batch", 1, "cells to request per claim round-trip (the coordinator may grant fewer)")
	flag.Parse()
	if err := run(*coordinator, *id, *methods, *poll, *fault, *once, *cacheDir, *cacheMax, *claimBatch); err != nil {
		fmt.Fprintln(os.Stderr, "dlpicworker:", err)
		os.Exit(1)
	}
}

func run(coordinator, id, methods string, poll time.Duration, fault string, once bool,
	cacheDir string, cacheMax, claimBatch int) error {
	if id == "" {
		return fmt.Errorf("-id is required")
	}
	names, needMLP, needCNN, err := experiments.ResolveMethodNames(methods)
	if err != nil {
		return err
	}
	// Split the registry: model-free names execute from built-in
	// factories; DL names are bundle-backed — the coordinator ships the
	// trained models, the cache holds them, experiments.BundleMethod
	// turns them into the exact per-call specs a serial run would use.
	var localNames, bundleNames []string
	for _, name := range names {
		if name == experiments.MethodMLP || name == experiments.MethodCNN {
			bundleNames = append(bundleNames, name)
		} else {
			localNames = append(localNames, name)
		}
	}
	opts := dist.WorkerOptions{
		ID:           id,
		Poll:         poll,
		ClaimBatch:   claimBatch,
		ExitWhenDone: once,
		Log:          os.Stderr,
	}
	if (needMLP || needCNN) && cacheDir == "" {
		return fmt.Errorf("DL methods need a bundle cache: set -cache-dir (got -methods %q)", methods)
	}
	if len(localNames) > 0 {
		specs, cleanup, err := experiments.MethodsWith(nil, localNames, experiments.MethodConfig{})
		if err != nil {
			return err
		}
		defer cleanup()
		opts.Methods = specs
	}
	if cacheDir != "" {
		cache, err := dist.NewBundleCache(cacheDir, cacheMax)
		if err != nil {
			return err
		}
		opts.Cache = cache
		opts.BundleMethod = experiments.BundleMethod
		opts.BundleMethods = bundleNames
	}
	plan, err := dist.ParseFaultPlan(fault)
	if err != nil {
		return err
	}
	opts.Client = dist.NewClient(coordinator, plan)
	w, err := dist.NewWorker(opts)
	if err != nil {
		return err
	}
	var stopped atomic.Bool
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintf(os.Stderr, "[worker %s] stopping after current cell\n", id)
		stopped.Store(true)
	}()
	fmt.Fprintf(os.Stderr, "[worker %s] claiming from %s (methods %v)\n", id, coordinator, names)
	return w.Run(stopped.Load)
}
