// Command dp-serve runs the DiscoPoP-Go analysis pipeline as a long-lived
// HTTP service: a persistent batch engine with a profile cache and shared
// arena pool, an async job API, and Prometheus metrics.
//
// Usage:
//
//	dp-serve [-addr :8080] [-jobs 0] [-cache-size 1024] [-queue 64] [-threads 16]
//	dp-serve -addr :8080 -peers http://10.0.0.7:8081,http://10.0.0.8:8081
//	dp-serve -tokens s3cret=alice,t0ken=bob -journal /var/lib/dp/jobs.journal \
//	         -rate 10 -max-inflight 8 -quota-instrs 5e6
//
//	curl -XPOST localhost:8080/v1/analyze -d '{"workload":"CG","scale":2}'
//	curl localhost:8080/v1/jobs/j000001?wait=10s
//	curl localhost:8080/v1/workloads
//	curl localhost:8080/metrics
//
// With -peers the node runs as a coordinator: every submission is
// encoded into the versioned IR wire format and shipped to a peer
// dp-serve worker (round-robin with health tracking and failover),
// falling back to local analysis when the whole fleet is unreachable.
// Per-peer proxy counters appear on /metrics.
//
// With -tokens or -token-file the /v1 API requires a bearer token, and
// rate limits, quotas, and journal records are keyed by the client each
// token maps to. -journal makes accepted/started/finished transitions
// durable: after a crash the next boot replays them, restores the job
// records (results included), and marks the jobs in flight at the crash
// as failed (interrupted). The journal bounds itself: once it outgrows
// -journal-max-bytes or -journal-max-records, the live job records are
// snapshotted into a fresh log (checkpoint record + atomic rename) so a
// boot replays the live store, not the full history; results too large
// for one journal record spill to content-addressed files under
// <journal>.spill/.
//
// -debug-addr serves net/http/pprof on a separate listener (bind it to
// localhost) so live profiling never shares a port with the authed API;
// -cpuprofile/-memprofile bracket the whole process for offline analysis.
//
// On SIGTERM/SIGINT the service drains: the listener closes, queued and
// running jobs finish, then the process exits. A second signal aborts
// immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	nhpprof "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"discopop/internal/profflag"
	"discopop/internal/server"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr      = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		jobs      = flag.Int("jobs", 0, "concurrent analysis workers (0 = one per CPU)")
		cacheSize = flag.Int("cache-size", 1024, "profile cache entries (0 = unbounded)")
		queue     = flag.Int("queue", 64, "pending submissions accepted before 503")
		threads   = flag.Int("threads", 16, "default thread count for local-speedup ranking")
		drainFor  = flag.Duration("drain-timeout", time.Minute, "max time to wait for in-flight jobs on shutdown")
		peers     = flag.String("peers", "", "comma-separated worker URLs; run as a fleet coordinator")

		tokens      = flag.String("tokens", "", "inline token map: tok=client[,tok=client...]; enables /v1 auth")
		tokenFile   = flag.String("token-file", "", "file of \"token client\" lines; enables /v1 auth")
		peerToken   = flag.String("peer-token", "", "bearer token this coordinator presents to its -peers")
		journalPath = flag.String("journal", "", "append-only job journal path; replayed on boot for crash recovery")
		journalMaxB = flag.Int64("journal-max-bytes", 0, "compact the journal past this size (0 = 64MiB, negative = never by size)")
		journalMaxR = flag.Int64("journal-max-records", 0, "compact the journal past this many records (0 = 8192, negative = never by count)")
		rate        = flag.Float64("rate", 0, "per-client submissions per second (0 = unlimited)")
		burst       = flag.Int("burst", 0, "per-client submission burst (0 = 4x rate)")
		maxInflight = flag.Int("max-inflight", 0, "per-client accepted-but-unfinished job cap (0 = unlimited)")
		quotaInstrs = flag.Float64("quota-instrs", 0, "per-client interpreted instructions per second (0 = unlimited)")
		maxModuleKB = flag.Int("max-module-kb", 0, "per-submission serialized-module payload cap in KiB (0 = codec limits only)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (never on the API listener)")
	)
	pf := profflag.Register(flag.CommandLine)
	flag.Parse()
	if err := pf.Start(); err != nil {
		log.Print("dp-serve: ", err)
		return 1
	}
	defer pf.Stop()

	cacheEntries := *cacheSize
	if cacheEntries == 0 {
		cacheEntries = -1 // Config: negative = unbounded
	}
	var peerList []string
	if *peers != "" {
		peerList = strings.Split(*peers, ",")
	}
	tokenMap, err := loadTokens(*tokens, *tokenFile)
	if err != nil {
		log.Printf("dp-serve: %v", err)
		return 1
	}
	cfg := server.Config{
		Workers:           *jobs,
		CacheEntries:      cacheEntries,
		QueueDepth:        *queue,
		Threads:           *threads,
		Peers:             peerList,
		Tokens:            tokenMap,
		JournalPath:       *journalPath,
		JournalMaxBytes:   *journalMaxB,
		JournalMaxRecords: *journalMaxR,
		Quotas: server.Quotas{
			SubmitRate:     *rate,
			SubmitBurst:    *burst,
			MaxInflight:    *maxInflight,
			InstrRate:      *quotaInstrs,
			MaxModuleBytes: *maxModuleKB << 10,
		},
	}
	cfg.Remote.Token = *peerToken
	svc, err := server.New(cfg)
	if err != nil {
		log.Printf("dp-serve: %v", err)
		return 1
	}
	if len(peerList) > 0 {
		log.Printf("dp-serve: coordinating a %d-peer fleet: %s", len(peerList), *peers)
	}
	if len(tokenMap) > 0 {
		log.Printf("dp-serve: /v1 auth enabled for %d token(s)", len(tokenMap))
	}
	if *journalPath != "" {
		log.Printf("dp-serve: journaling jobs to %s", *journalPath)
	}
	if *debugAddr != "" {
		// The profiling endpoints run on their own listener with their own
		// mux: the API listener stays free of unauthenticated debug
		// handlers, and an operator binds this one to localhost.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Printf("dp-serve: debug listener: %v", err)
			return 1
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", nhpprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", nhpprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", nhpprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", nhpprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", nhpprof.Trace)
		log.Printf("dp-serve: pprof debug listener on %s", dln.Addr())
		go http.Serve(dln, dmux)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Printf("dp-serve: %v", err)
		return 1
	}
	// The resolved address line is load-bearing for scripts booting on port
	// 0: they parse the port from it.
	fmt.Printf("dp-serve listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: svc}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigs:
		log.Printf("dp-serve: %v: draining (in-flight jobs finish; signal again to abort)", sig)
	case err := <-serveErr:
		log.Printf("dp-serve: %v", err)
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	go func() {
		<-sigs
		log.Print("dp-serve: second signal, aborting drain")
		cancel()
	}()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("dp-serve: http shutdown: %v", err)
	}
	if err := svc.Drain(ctx); err != nil {
		log.Printf("dp-serve: %v", err)
		return 1
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("dp-serve: %v", err)
	}
	log.Print("dp-serve: drained cleanly")
	return 0
}

// loadTokens merges the -tokens inline map ("tok=client,tok=client") with
// a -token-file of "token client" lines (blank lines and #-comments
// skipped). Later entries win on duplicate tokens.
func loadTokens(inline, file string) (map[string]string, error) {
	out := map[string]string{}
	if inline != "" {
		for _, pair := range strings.Split(inline, ",") {
			tok, client, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok || tok == "" || client == "" {
				return nil, fmt.Errorf("bad -tokens entry %q (want token=client)", pair)
			}
			out[tok] = client
		}
	}
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("-token-file: %w", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) != 2 {
				return nil, fmt.Errorf("-token-file %s:%d: want \"token client\"", file, i+1)
			}
			out[fields[0]] = fields[1]
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}
