// Command xorbasd serves a store over HTTP: an S3-flavored object
// gateway (PUT/GET/HEAD/DELETE, prefix lists, ranged reads, multipart
// uploads) in front of the LRC/RS erasure-coded store.
//
//	xorbasd -dir /tmp/demo
//	curl -T report.pdf http://127.0.0.1:8080/t/acme/reports/q3.pdf
//	curl -r 0-1023    http://127.0.0.1:8080/t/acme/reports/q3.pdf
//
// It binds to loopback unless told otherwise; exposing it beyond the
// host is an explicit -listen choice.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/gateway"
	"repro/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "xorbasd:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("xorbasd", flag.ExitOnError)
	sf := cliutil.RegisterStoreFlags(fs)
	listen := fs.String("listen", "127.0.0.1:8080", "HTTP listen address (loopback by default; bind wider deliberately)")
	racks := fs.Int("racks", 8, "racks, rack = node mod racks (store creation only)")
	blockSize := fs.Int("block", 64<<10, "max data-block bytes (store creation only)")
	rate := fs.Int64("tenant-rate", 0, "per-tenant byte budget per second across puts and gets; over budget = 429 (0 = unlimited)")
	inflight := fs.Int64("tenant-inflight", 0, "per-tenant concurrent request cap; over cap = 429 (0 = unlimited)")
	repairRate := fs.Int64("repair-rate", 0, "read budget of every background block move (repair, drain, joiner fill), bytes/sec; foreground gets are never paced (0 = unlimited)")
	scrubRate := fs.Int64("scrub-rate", 0, "scrub read budget, bytes/sec (0 = unlimited)")
	cacheBytes := fs.Int64("cache-bytes", 256<<20, "hot-block read cache capacity in bytes: repeat reads of hot objects skip the backend; hit rate on /metrics (0 = no cache)")
	scrubEvery := fs.Duration("scrub-interval", 0, "background integrity-walk period (0 = no background scrub)")
	rebalEvery := fs.Duration("rebalance-interval", 0, "background rebalance pass period; moves blocks onto joiners and off drainers (0 = no background rebalance)")
	healthEvery := fs.Duration("health-interval", 0, "node health probe period; probing backends get auto dead/alive + auto-repair: 3 missed probes confirm a death, 2 answered a revival (0 = off)")
	tokens := map[string]string{}
	fs.Func("token", "tenant=secret bearer token, repeatable; tenants without one are open", func(v string) error {
		tenant, secret, ok := strings.Cut(v, "=")
		if !ok || tenant == "" || secret == "" {
			return fmt.Errorf("-token wants tenant=secret, got %q", v)
		}
		tokens[tenant] = secret
		return nil
	})
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *sf.Dir == "" {
		return fmt.Errorf("need -dir")
	}

	rates := cliutil.Rates{Repair: *repairRate, Scrub: *scrubRate, CacheBytes: *cacheBytes}
	s, err := sf.OpenOrCreate(*racks, *blockSize, rates)
	if err != nil {
		return err
	}

	// The self-healing plane, run by one RepairManager: its workers
	// drain what the passes enqueue, under the one -repair-rate budget —
	// the scrub walk, the rebalance pass that queues a drainer's blocks
	// to be copied off (or rebuilt, if it died) and fills joiners, the
	// monitor's probe round that turns backend probes into liveness
	// flips, drainers' included. A pass whose interval is 0 is off; with
	// all three off the store is operator-driven.
	rm := store.NewRepairManager(s, 0)
	sc := store.NewScrubber(s, rm, *scrubEvery)
	store.NewRebalancer(s, rm, *rebalEvery)
	store.NewHealthMonitor(s, sc, store.MonitorConfig{Interval: *healthEvery})
	rm.Start()
	defer rm.Stop()

	g, err := gateway.New(gateway.Config{
		Store:       s,
		Tokens:      tokens,
		BytesPerSec: *rate,
		MaxInflight: *inflight,
	})
	if err != nil {
		return err
	}

	// The drain gate makes shutdown graceful for clients on keep-alive
	// connections: once the flag flips, new requests are refused with a
	// 503 and a Retry-After hint while in-flight ones run to completion
	// under srv.Shutdown.
	var draining atomic.Bool
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if draining.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		g.ServeHTTP(w, r)
	})

	srv := &http.Server{
		Addr:              *listen,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("xorbasd: serving %s (%s, %d nodes) on http://%s", *sf.Dir, s.Codec().Name(), s.Nodes(), *listen)

	select {
	case err := <-errc:
		// ListenAndServe never returns nil; the store is still consistent
		// (acked writes are in the plane), so just report the bind error.
		return err
	case <-ctx.Done():
	}

	log.Printf("xorbasd: shutting down: refusing new requests, draining in-flight")
	draining.Store(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("xorbasd: shutdown: %v", err)
	}
	// Stop the background plane before the close: it checkpoints the
	// metadata plane, and a probe round, scrub, migration or repair still
	// in flight would race it. The deferred Stop becomes a no-op.
	rm.Stop()
	log.Printf("xorbasd: checkpointing store")
	return s.Close()
}
