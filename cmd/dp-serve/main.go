// Command dp-serve runs the DiscoPoP-Go analysis pipeline as a long-lived
// HTTP service: a persistent batch engine with a finished-report memo and a
// shared arena pool, an async job API, and Prometheus metrics. -cache-size
// bounds the memo.
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

// config is the parsed command line: the service's configuration and what
// run itself acts on.
type config struct {
	addr      string
	debugAddr string
	drainFor  time.Duration
	srv       server.Config
	prof      *profflag.Flags
}

// usageError is a command line the flag package accepts and dp-serve does
// not; the flag package reports its own errors (and -h) itself.
type usageError string

func (e usageError) Error() string { return string(e) }

// parse reads and validates the command line (without the program name).
func parse(args []string) (config, error) {
	var c config
	var cacheSize, maxModuleKB int
	var peers, tokens, tokenFile string
	fs := flag.NewFlagSet("dp-serve", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	fs.IntVar(&c.srv.Workers, "jobs", 0, "concurrent analysis workers (0 = one per CPU)")
	fs.IntVar(&cacheSize, "cache-size", 1024, "report-memo entries (0 = unbounded)")
	fs.IntVar(&c.srv.QueueDepth, "queue", 64, "pending submissions accepted before 503")
	fs.IntVar(&c.srv.Threads, "threads", 16, "default thread count for local-speedup ranking")
	fs.DurationVar(&c.drainFor, "drain-timeout", time.Minute, "max time to wait for in-flight jobs on shutdown")
	fs.StringVar(&peers, "peers", "", "comma-separated worker URLs; run as a fleet coordinator")

	fs.StringVar(&tokens, "tokens", "", "inline token map: tok=client[,tok=client...]; enables /v1 auth")
	fs.StringVar(&tokenFile, "token-file", "", "file of \"token client\" lines; enables /v1 auth")
	fs.StringVar(&c.srv.Remote.Token, "peer-token", "", "bearer token this coordinator presents to its -peers")
	fs.StringVar(&c.srv.JournalPath, "journal", "", "append-only job journal path; replayed on boot for crash recovery")
	fs.Int64Var(&c.srv.JournalMaxBytes, "journal-max-bytes", 0, "compact the journal past this size (0 = 64MiB, negative = never by size)")
	fs.Int64Var(&c.srv.JournalMaxRecords, "journal-max-records", 0, "compact the journal past this many records (0 = 8192, negative = never by count)")
	fs.Float64Var(&c.srv.Quotas.SubmitRate, "rate", 0, "per-client submissions per second (0 = unlimited)")
	fs.IntVar(&c.srv.Quotas.SubmitBurst, "burst", 0, "per-client submission burst (0 = 4x rate)")
	fs.IntVar(&c.srv.Quotas.MaxInflight, "max-inflight", 0, "per-client accepted-but-unfinished job cap (0 = unlimited)")
	fs.Float64Var(&c.srv.Quotas.InstrRate, "quota-instrs", 0, "per-client interpreted instructions per second (0 = unlimited)")
	fs.IntVar(&maxModuleKB, "max-module-kb", 0, "per-submission serialized-module payload cap in KiB (0 = codec limits only)")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "serve net/http/pprof on this separate address (never on the API listener)")
	c.prof = profflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	c.srv.CacheEntries = cacheSize
	if cacheSize == 0 {
		c.srv.CacheEntries = -1 // Config: negative = unbounded
	}
	c.srv.Quotas.MaxModuleBytes = maxModuleKB << 10
	if peers != "" {
		c.srv.Peers = strings.Split(peers, ",")
	}
	var err error
	if c.srv.Tokens, err = loadTokens(tokens, tokenFile); err != nil {
		return c, usageError("dp-serve: " + err.Error())
	}
	return c, nil
}

func run() int {
	c, err := parse(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		if _, own := err.(usageError); own {
			fmt.Fprintln(os.Stderr, err)
		}
		return 2
	}
	return serve(c)
}

// serve runs the service until a signal drains it.
func serve(c config) int {
	if err := c.prof.Start(); err != nil {
		log.Print("dp-serve: ", err)
		return 1
	}
	defer c.prof.Stop()

	svc, err := server.New(c.srv)
	if err != nil {
		log.Printf("dp-serve: %v", err)
		return 1
	}
	if n := len(c.srv.Peers); n > 0 {
		log.Printf("dp-serve: coordinating a %d-peer fleet: %s", n, strings.Join(c.srv.Peers, ","))
	}
	if n := len(c.srv.Tokens); n > 0 {
		log.Printf("dp-serve: /v1 auth enabled for %d token(s)", n)
	}
	if c.srv.JournalPath != "" {
		log.Printf("dp-serve: journaling jobs to %s", c.srv.JournalPath)
	}
	if c.debugAddr != "" {
		// The profiling endpoints run on their own listener with their own
		// mux: the API listener stays free of unauthenticated debug
		// handlers, and an operator binds this one to localhost.
		dln, err := net.Listen("tcp", c.debugAddr)
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

	ln, err := net.Listen("tcp", c.addr)
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

	ctx, cancel := context.WithTimeout(context.Background(), c.drainFor)
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
