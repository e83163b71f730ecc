// Command sidrd is the long-running query-serving daemon: it registers
// the *.ncf datasets under -data, runs queries with a 128-entry LRU plan
// cache, and streams each keyblock's output as NDJSON the moment it
// commits — SIDR's early correct results over the wire.
//
// All jobs share one process-wide task executor of -exec-workers
// goroutines: Map/Reduce tasks from every running job are dispatched
// onto that single bounded pool (a job's "workers" request caps its
// share), so total task concurrency stays fixed no matter how many jobs
// -max-jobs admits.
//
// The serving tier in front of execution: finished results are kept in
// a -result-cache-bytes LRU keyed on {dataset version, canonical
// query, engine, plan parameters} and repeat queries are answered from
// it without re-executing; concurrent identical queries collapse onto
// one running job; and -tenant/-tenant-default give each X-SIDR-Tenant
// a max-in-flight quota (429 detail "tenant-quota" on breach) and a
// weighted-fair share of the executor.
//
// Usage:
//
//	sidrd -addr :7171 -data ./datasets -max-jobs 8 -exec-workers 8 -queue 64
//
// A session:
//
//	curl -s localhost:7171/v1/query -d '{"dataset":"wind","query":"median windspeed[0,0,0,0 : 144,36,36,10] es {2,36,36,10}"}'
//	curl -sN localhost:7171/v1/jobs/job-000001/stream
//	curl -s  localhost:7171/metrics
//
// SIGINT/SIGTERM shut the daemon down gracefully: the listener stops,
// queued jobs are cancelled, and in-flight jobs drain (up to
// -drain-timeout, after which they are cancelled too).
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
	"syscall"
	"time"

	"sidr/internal/cluster"
	"sidr/internal/faultinject"
	"sidr/internal/jobs"
	"sidr/internal/metrics"
	"sidr/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":7171", "listen address")
		dataDir   = flag.String("data", "", "directory of *.ncf datasets to serve")
		maxJobs   = flag.Int("max-jobs", 0, "max concurrently running jobs (0 = GOMAXPROCS)")
		execWork  = flag.Int("exec-workers", 0, "task executor pool size shared by all jobs (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "queued-job admission limit")
		retain    = flag.Int("retain-jobs", 256, "finished jobs kept for status/stream lookups before eviction (-1 keeps all)")
		drain     = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget for in-flight jobs")
		clusterOn = flag.Bool("cluster", false, "embed the cluster coordinator: accept sidr-worker registrations and route {\"cluster\":true} jobs through the distributed runtime")
		hbTimeout = flag.Duration("heartbeat-timeout", 5*time.Second, "evict workers that miss heartbeats for this long (with -cluster)")
		specOn    = flag.Bool("speculation", false, "launch backup attempts for straggling Map dispatches (with -cluster)")
		chaos     = flag.String("chaos", "", "coordinator-side fault-injection spec applied to dispatch/shuffle requests, e.g. \"seed=42,match=/v1/shuffle/,delay=0.1:50ms,flip=0.01\" (see internal/faultinject)")
		rcBytes   = flag.Int64("result-cache-bytes", 64<<20, "memory budget of the versioned result cache serving repeat queries without re-execution: bytes its entries keep alive, counted from their rows (-1 disables)")
		tenantDef = flag.String("tenant-default", "0:1", "admission policy MAXINFLIGHT[:WEIGHT] for tenants without an explicit -tenant entry (0 = unlimited)")
	)
	tenants := make(map[string]jobs.TenantPolicy)
	flag.Func("tenant", "per-tenant admission policy NAME=MAXINFLIGHT[:WEIGHT], repeatable; tenants are named by the X-SIDR-Tenant header", func(s string) error {
		name, p, err := jobs.ParseTenantSpec(s)
		if err != nil {
			return err
		}
		tenants[name] = p
		return nil
	})
	flag.Parse()
	tdef, err := jobs.ParseTenantPolicy(*tenantDef)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sidrd: -tenant-default: %v\n", err)
		os.Exit(1)
	}
	if err := run(*addr, *dataDir, *maxJobs, *execWork, *queue, *retain, *drain, *clusterOn, *hbTimeout, *specOn, *chaos, *rcBytes, tenants, tdef); err != nil {
		fmt.Fprintf(os.Stderr, "sidrd: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, dataDir string, maxJobs, execWorkers, queue, retain int, drain time.Duration, clusterOn bool, hbTimeout time.Duration, specOn bool, chaos string, rcBytes int64, tenants map[string]jobs.TenantPolicy, tenantDefault jobs.TenantPolicy) error {
	reg := metrics.New()
	registry := server.NewRegistry()
	if dataDir != "" {
		n, err := registry.ScanDir(dataDir)
		if err != nil {
			return err
		}
		log.Printf("sidrd: serving %d dataset(s) from %s", n, dataDir)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var coord *cluster.Coordinator
	if clusterOn {
		ccfg := cluster.CoordinatorConfig{
			HeartbeatTimeout: hbTimeout,
			Metrics:          reg,
			Logf:             log.Printf,
			Speculation:      specOn,
		}
		if chaos != "" {
			spec, err := faultinject.Parse(chaos)
			if err != nil {
				return fmt.Errorf("-chaos: %w", err)
			}
			// Wraps the default transport: a response-header timeout would
			// cut off legitimately long Map executions mid-dispatch.
			ccfg.Client = &http.Client{
				Transport: faultinject.New(spec).Transport(http.DefaultTransport),
			}
			log.Printf("sidrd: CHAOS enabled on dispatch/shuffle client: %s", chaos)
		}
		coord = cluster.NewCoordinator(ccfg)
		defer coord.Close()
		go coord.Start(ctx)
		log.Printf("sidrd: clustering enabled (heartbeat timeout %v, speculation %v); workers register at /v1/cluster/register", hbTimeout, specOn)
	}
	mgr, err := jobs.NewManager(jobs.Config{
		MaxConcurrent:    maxJobs,
		ExecWorkers:      execWorkers,
		QueueDepth:       queue,
		RetainJobs:       retain,
		ResultCacheBytes: rcBytes,
		Tenants:          tenants,
		TenantDefault:    tenantDefault,
		Datasets:         registry,
		Cluster:          coord,
		Metrics:          reg,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Addr: addr, Handler: server.New(mgr, registry, reg, coord)}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("sidrd: listening on %s", addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("sidrd: shutting down, draining in-flight jobs (%v budget)", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("sidrd: http shutdown: %v", err)
	}
	if err := mgr.Shutdown(shutdownCtx); err != nil {
		log.Printf("sidrd: drain budget exhausted, jobs cancelled: %v", err)
	}
	if err := registry.Close(); err != nil {
		log.Printf("sidrd: closing datasets: %v", err)
	}
	log.Printf("sidrd: bye")
	return nil
}
