// Command sidr-worker is one worker process of the distributed runtime:
// it registers with a coordinator (a sidrd with clustering enabled, or a
// standalone cluster.Coordinator), executes the Map task attempts the
// coordinator dispatches to it, writes partition+ keyblock spills with
// the kv codec, and serves them from its shuffle endpoint until the
// coordinator's Reduce tasks have fetched their I_ℓ dependency sets.
//
// Usage:
//
//	sidr-worker -addr 127.0.0.1:7101 -coordinator http://127.0.0.1:7171 \
//	    -name worker-1
//
// Spills are held in the worker's memory until the coordinator releases
// their job; a restarted worker holds none, and the coordinator
// re-executes the splits it still needs.
//
// The worker heartbeats every -heartbeat; miss the coordinator's
// deadline and it is evicted, its spills declared lost, and its Map
// tasks re-executed elsewhere.
//
// SIGTERM drains instead of dying: the worker stops accepting Map
// dispatches but keeps serving its spills until every reduce that
// depends on them has fetched them and committed, then exits cleanly (bounded by -drain-timeout; a second signal forces
// immediate shutdown). SIGINT shuts down immediately. The coordinator
// can also initiate a drain via its /v1/drain endpoint — the worker
// learns of it through the heartbeat response and runs the same path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sidr/internal/cluster"
	"sidr/internal/faultinject"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:0", "listen address")
		coordinator = flag.String("coordinator", "", "coordinator base URL (e.g. http://127.0.0.1:7171)")
		name        = flag.String("name", "", "worker identity (default: worker-<port>)")
		advertise   = flag.String("advertise", "", "base URL the coordinator dials back (default: http://<addr>)")
		heartbeat   = flag.Duration("heartbeat", time.Second, "heartbeat period")
		drainTO     = flag.Duration("drain-timeout", 60*time.Second, "max time to wait for spill hand-off on SIGTERM drain")
		dialTO      = flag.Duration("dial-timeout", 0, "coordinator dial/TLS timeout (0 = 2s)")
		headerTO    = flag.Duration("header-timeout", 0, "coordinator response-header timeout (0 = 5s)")
		chaos       = flag.String("chaos", "", "fault-injection spec, e.g. \"seed=42,kill-after-maps=5,hang=0.05,match=/v1/shuffle/,flip=0.01\" (see internal/faultinject)")
	)
	flag.Parse()
	if err := run(*addr, *coordinator, *name, *advertise, *heartbeat, *drainTO, *dialTO, *headerTO, *chaos); err != nil {
		fmt.Fprintf(os.Stderr, "sidr-worker: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, coordinator, name, advertise string, heartbeat, drainTO, dialTO, headerTO time.Duration, chaos string) error {
	if coordinator == "" {
		return fmt.Errorf("-coordinator is required")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	boundAddr := ln.Addr().String()
	if name == "" {
		_, port, _ := net.SplitHostPort(boundAddr)
		name = "worker-" + port
	}
	if advertise == "" {
		advertise = "http://" + boundAddr
	}
	var inj *faultinject.Injector
	if chaos != "" {
		spec, err := faultinject.Parse(chaos)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		inj = faultinject.New(spec)
		log.Printf("sidr-worker: CHAOS enabled: %s", chaos)
	}
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Name:           name,
		AdvertiseURL:   advertise,
		CoordinatorURL: coordinator,
		Heartbeat:      heartbeat,
		DialTimeout:    dialTO,
		HeaderTimeout:  headerTO,
		Chaos:          inj,
		Logf:           log.Printf,
	})
	if err != nil {
		return err
	}
	defer w.Close()

	startCtx, stopStart := context.WithCancel(context.Background())
	defer stopStart()
	go w.Start(startCtx)

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	var handler http.Handler = w
	if inj != nil {
		// Response-side chaos (delay/drop/error/flip/slow) wraps the whole
		// worker API, so served spills can be corrupted or trickled too.
		handler = inj.Middleware(w)
	}
	httpSrv := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("sidr-worker: %q serving on %s, coordinator %s", name, boundAddr, coordinator)
		errCh <- httpSrv.Serve(ln)
	}()

	drain := false
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		drain = sig == syscall.SIGTERM
	case <-w.DrainSignal():
		// Coordinator-initiated drain, learned via the heartbeat response.
		drain = true
	}
	if drain {
		log.Printf("sidr-worker: draining (timeout %s; signal again to force shutdown)", drainTO)
		stopStart() // Drain runs its own heartbeat loop
		dctx, dcancel := context.WithTimeout(context.Background(), drainTO)
		go func() {
			select {
			case <-sigCh:
				log.Printf("sidr-worker: second signal; abandoning drain")
				dcancel()
			case <-dctx.Done():
			}
		}()
		if err := w.Drain(dctx); err != nil {
			log.Printf("sidr-worker: drain incomplete: %v", err)
		}
		dcancel()
	}
	log.Printf("sidr-worker: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("sidr-worker: http shutdown: %v", err)
	}
	log.Printf("sidr-worker: bye")
	return nil
}
