// Command voltbootd serves attack-campaign sweeps over HTTP: the full
// experiment catalog behind a bounded job queue, a worker pool, and a
// tiered content-addressed result cache (memory in front of an optional
// crash-safe disk store) that serves repeated campaigns byte-identically
// without re-simulating.
//
// Usage:
//
//	voltbootd                          # standalone on :8532, memory cache only
//	voltbootd -addr :9000 -workers 8 -queue 128
//	voltbootd -store-dir /var/lib/voltboot -store-max-bytes 2147483648
//
// A fleet: give each process an identity and the full member list, and
// multi-run sweeps shard across the ring, each run on its owner:
//
//	voltbootd -addr :8532 -id a -store-dir /tmp/vb-a \
//	          -peers b=http://host2:8532,c=http://host3:8532
//
// Submit a Table 1 job and stream its progress:
//
//	curl -s -X POST localhost:8532/v1/jobs \
//	     -d '{"runs":[{"experiment":"table1"}],"seed":24301}'
//	curl -s localhost:8532/v1/jobs/job-1/events     # NDJSON progress
//	curl -s localhost:8532/v1/jobs/job-1/result     # deterministic body
//	curl -s localhost:8532/v1/ring                  # fleet membership
//
// SIGTERM/SIGINT drains gracefully: forwarded-in fabric work completes
// (new forwards 503 so peers hand shards back), intake stops, queued and
// running jobs finish, then the process exits.
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
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/fabric"
	"repro/internal/registry"
	"repro/internal/store"
)

// parsePeers parses "id=url,id=url" into fabric peers.
func parsePeers(s string) ([]fabric.Peer, error) {
	if s == "" {
		return nil, nil
	}
	var out []fabric.Peer
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		id, addr, ok := strings.Cut(tok, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad peer %q, want id=http://host:port", tok)
		}
		out = append(out, fabric.Peer{ID: id, Addr: strings.TrimSuffix(addr, "/")})
	}
	return out, nil
}

func main() {
	var (
		addr          = flag.String("addr", ":8532", "listen address")
		workers       = flag.Int("workers", runtime.GOMAXPROCS(0), "campaign worker pool size")
		queueDepth    = flag.Int("queue", 64, "submission queue depth (backpressure bound)")
		memEntries    = flag.Int("mem-entries", 0, "in-memory result cache bound (0 = default)")
		jobRetention  = flag.Int("retain-jobs", 0, "finished jobs kept queryable before the oldest are forgotten, and 64 times as many runs across them (0 = default 1024)")
		storeDir      = flag.String("store-dir", "", "disk result store directory (empty = memory cache only)")
		storeMaxBytes = flag.Int64("store-max-bytes", 0, "disk store size cap before segment eviction (0 = default 1 GiB)")
		storeSync     = flag.Bool("store-sync", false, "fsync the store after every append")
		nodeID        = flag.String("id", "", "fabric peer identity (empty = standalone)")
		peersFlag     = flag.String("peers", "", "fabric members as id=http://host:port,... (requires -id)")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Minute, "max time to finish jobs on shutdown")
	)
	flag.Parse()

	reg := registry.Default()

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(store.Options{Dir: *storeDir, MaxBytes: *storeMaxBytes, Sync: *storeSync})
		if err != nil {
			log.Fatalf("voltbootd: store: %v", err)
		}
		s := st.Stats()
		log.Printf("voltbootd: store %s: %d records in %d segments (%d bytes, %d recovered)",
			*storeDir, s.Records, s.Segments, s.DiskBytes, s.RecoveredBytes)
	}

	var node *fabric.Node
	if *nodeID != "" {
		peers, err := parsePeers(*peersFlag)
		if err != nil {
			log.Fatalf("voltbootd: -peers: %v", err)
		}
		node, err = fabric.New(fabric.Config{
			Self: *nodeID, Peers: peers, Fingerprint: reg.Fingerprint(),
		})
		if err != nil {
			log.Fatalf("voltbootd: fabric: %v", err)
		}
	} else if *peersFlag != "" {
		log.Fatal("voltbootd: -peers requires -id")
	}

	cfg := campaign.Config{
		Registry:     reg,
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		MemEntries:   *memEntries,
		JobRetention: *jobRetention,
		Store:        st,
	}
	if node != nil {
		cfg.Sweep = node
	}
	mgr := campaign.New(cfg)
	if node != nil {
		node.Attach(mgr)
	}
	srv := &http.Server{Addr: *addr, Handler: api.New(mgr, reg, node)}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("voltbootd: serving %d experiments on %s (%d workers, queue %d)",
			len(reg.Experiments()), *addr, *workers, *queueDepth)
		errc <- srv.ListenAndServe()
	}()

	if node != nil {
		// Best-effort startup probe: log unreachable or incompatible
		// peers, but serve anyway — routing self-heals per forward.
		probeCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		if err := node.Refresh(probeCtx); err != nil {
			log.Printf("voltbootd: fabric probe: %v", err)
		}
		cancel()
		log.Printf("voltbootd: fabric node %q in a ring of %d", node.Self(), len(node.Status().Peers)+1)
	}

	select {
	case err := <-errc:
		log.Fatalf("voltbootd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("voltbootd: signal received, draining (timeout %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain order matters: the fabric gate goes first so peers get their
	// in-flight forwarded results (new forwards 503 and hand back), then
	// the local queue finishes while clients can still poll, then the
	// listener closes and the store syncs shut.
	var derr error
	if node != nil {
		derr = node.Drain(drainCtx)
	} else {
		derr = mgr.Drain(drainCtx)
	}
	if derr != nil {
		log.Printf("voltbootd: drain: %v", derr)
	} else {
		log.Printf("voltbootd: all jobs drained")
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("voltbootd: shutdown: %v", err)
	}
	if st != nil {
		if err := st.Close(); err != nil {
			log.Printf("voltbootd: store close: %v", err)
		}
	}
	fmt.Println("voltbootd: bye")
}
