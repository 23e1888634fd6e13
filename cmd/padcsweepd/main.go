// Command padcsweepd is the sweep campaign service and its CLI client.
//
// The serve subcommand runs the daemon: it accepts sweep-spec uploads
// over HTTP/JSON, executes them on the deterministic engine with a
// bounded worker pool, journals every completed row to a write-ahead
// log under the data directory, and streams rows to attached clients
// with backpressure. Killing the server mid-campaign loses nothing: on
// restart it replays the journal and resumes each interrupted campaign
// from the rows already on disk, converging on artifacts byte-identical
// to an uninterrupted `padcsim -sweep` run.
//
//	padcsweepd serve -addr :8080 -data /var/lib/padcsweepd -jobs 8 \
//	    [-log-level debug|info|warn|error] [-log-json]
//
// The daemon binds its listener before replaying the data directory:
// /healthz (liveness) answers immediately, while /readyz (readiness)
// and the API return 503 until journal replay and campaign resume
// finish. Logs are structured (log/slog) with campaign/job/request
// correlation ids; -log-json switches them to JSON for log shippers.
//
// The remaining subcommands are thin clients for a running server:
//
//	padcsweepd submit -server http://host:8080 -spec sweep.json [-telemetry] -wait
//	padcsweepd status -server http://host:8080 [campaign-id]
//	padcsweepd rows -server http://host:8080 <campaign-id> [-offset N]
//	padcsweepd artifact -server http://host:8080 <campaign-id> [-format csv|json] [-o out]
//	padcsweepd telemetry -server http://host:8080 <campaign-id> [-partial] [-o out]
//	padcsweepd cancel -server http://host:8080 <campaign-id>
//
// Sharded campaigns: submit the same spec to N cooperating servers with
// -shard 0/N ... (N-1)/N; each server owns the grid indexes congruent to
// its shard index, and the unioned rows merge into the unsharded
// artifact (see EXPERIMENTS.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"padc/internal/runner"
	"padc/internal/sweepd"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("padcsweepd: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "serve":
		err = serve(args)
	case "submit":
		err = submit(args)
	case "status":
		err = status(args)
	case "rows":
		err = rows(args)
	case "artifact":
		err = artifact(args)
	case "telemetry":
		err = telemetryCmd(args)
	case "cancel":
		err = cancel(args)
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "padcsweepd: unknown subcommand %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: padcsweepd <subcommand> [flags]

  serve     run the sweep service daemon
  submit    upload a sweep spec to a running server
  status    list campaigns, or show one campaign's status
  rows      stream a campaign's result rows as NDJSON
  artifact  download a campaign's merged CSV/JSON artifact
  telemetry download a campaign's per-job flight roll-ups (NDJSON)
  cancel    cancel a running campaign

Run 'padcsweepd <subcommand> -h' for that subcommand's flags.
`)
}

// Connection timeouts of the service's HTTP server. A client gets
// readHeaderTimeout to send its request headers and an idle keep-alive
// connection is closed after idleTimeout. There is deliberately no write
// timeout: NDJSON row streams stay open for a whole campaign.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer returns the service's HTTP server around h.
func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// serve runs the daemon until SIGINT/SIGTERM. Graceful shutdown writes
// no terminal journal event on purpose — an interrupted campaign resumes
// on the next start.
func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	data := fs.String("data", "", "campaign data directory (journals live here; required)")
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "default per-campaign worker-pool size")
	addrFile := fs.String("addr-file", "", "write the bound listen address to this file (for scripts using port 0)")
	noResume := fs.Bool("no-resume", false, "do not auto-resume interrupted campaigns on start")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
	logJSON := fs.Bool("log-json", false, "emit structured logs as JSON instead of text")
	fs.Parse(args)
	if *data == "" {
		return fmt.Errorf("serve: -data is required")
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("serve: bad -log-level %q: %w", *logLevel, err)
	}
	hopts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, hopts)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, hopts)
	}
	logger := slog.New(handler)

	// Bind and serve the readiness gate before touching the data
	// directory: liveness probes answer immediately, /readyz and the API
	// hold at 503 while journal replay and campaign resume run, and
	// scripts waiting on the addr file see it as soon as the port exists.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		// Write to a temp name then rename so pollers never read a torn file.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			return err
		}
	}
	gate := sweepd.NewGate()
	srv := newServer(gate)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	logger.Info("listening", "addr", ln.Addr().String(), "data", *data, "workers", *jobs)

	s, err := sweepd.NewService(sweepd.ServiceOptions{
		DataDir: *data,
		Workers: *jobs,
		Resume:  !*noResume,
		Logger:  logger,
	})
	if err != nil {
		srv.Close()
		return err
	}
	gate.SetReady(s.Handler())
	logger.Info("ready")

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Info("shutting down (running campaigns will resume on restart)", "signal", sig.String())
	case err := <-errc:
		s.Close()
		return err
	}
	ctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	srv.Shutdown(ctx)
	s.Close()
	return nil
}

// clientFlags adds the -server flag every client subcommand shares.
func clientFlags(fs *flag.FlagSet) *string {
	return fs.String("server", "http://127.0.0.1:8080", "padcsweepd server base URL")
}

func newClient(server string) (*sweepd.Client, error) {
	return sweepd.NewClient(server)
}

// parseShard decodes "i/n" (e.g. "0/4") into a runner.Shard.
func parseShard(s string) (runner.Shard, error) {
	var sh runner.Shard
	if s == "" {
		return sh, nil
	}
	idx, count, ok := strings.Cut(s, "/")
	if !ok {
		return sh, fmt.Errorf("shard %q: want index/count (e.g. 0/4)", s)
	}
	var err error
	if sh.Index, err = strconv.Atoi(idx); err != nil {
		return sh, fmt.Errorf("shard %q: bad index", s)
	}
	if sh.Count, err = strconv.Atoi(count); err != nil {
		return sh, fmt.Errorf("shard %q: bad count", s)
	}
	return sh, sh.Validate()
}

func submit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	server := clientFlags(fs)
	specPath := fs.String("spec", "", "JSON sweep spec file (required)")
	workers := fs.Int("workers", 0, "campaign worker-pool size (0 = server default)")
	verify := fs.Bool("verify", false, "run accounting-invariant checks on every job")
	telemetry := fs.Bool("telemetry", false, "record per-job flight-recorder roll-ups (GET .../telemetry)")
	shardStr := fs.String("shard", "", "grid shard this server owns, as index/count (e.g. 0/4)")
	wait := fs.Bool("wait", false, "block until the campaign reaches a terminal state")
	csvOut := fs.String("csv", "", "with -wait: download the merged CSV artifact to this file")
	jsonOut := fs.String("json", "", "with -wait: download the merged JSON artifact to this file")
	fs.Parse(args)
	if *specPath == "" {
		return fmt.Errorf("submit: -spec is required")
	}
	spec, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	shard, err := parseShard(*shardStr)
	if err != nil {
		return err
	}
	cl, err := newClient(*server)
	if err != nil {
		return err
	}
	ctx := context.Background()
	info, err := cl.Submit(ctx, sweepd.SubmitRequest{
		Spec: spec, Workers: *workers, Verify: *verify, Shard: shard, Telemetry: *telemetry,
	})
	if err != nil {
		return err
	}
	fmt.Printf("campaign %s: %s, %d jobs (shard %s)\n", info.ID, info.State, info.Total, info.Shard)
	if !*wait {
		return nil
	}
	final, err := waitWithProgress(ctx, cl, info.ID)
	if err != nil {
		return err
	}
	if *csvOut != "" {
		if err := download(ctx, cl, info.ID, "csv", *csvOut); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		if err := download(ctx, cl, info.ID, "json", *jsonOut); err != nil {
			return err
		}
	}
	if final.State != "completed" {
		return fmt.Errorf("campaign %s %s: %s", final.ID, final.State, final.Error)
	}
	return nil
}

// waitWithProgress polls the campaign with a stderr progress line.
func waitWithProgress(ctx context.Context, cl *sweepd.Client, id string) (sweepd.CampaignInfo, error) {
	info, err := cl.Wait(ctx, id, 200*time.Millisecond, func(ci sweepd.CampaignInfo) {
		fmt.Fprintf(os.Stderr, "\rpadcsweepd: %s %d/%d jobs (%d running, %d failed)",
			ci.State, ci.Done, ci.Total, ci.Running, ci.Failed)
	})
	fmt.Fprintln(os.Stderr)
	return info, err
}

// download fetches one artifact verbatim — the bytes on disk are exactly
// the bytes the server merged, preserving the byte-identity contract.
func download(ctx context.Context, cl *sweepd.Client, id, format, path string) error {
	data, err := cl.Artifact(ctx, id, format)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
	return nil
}

func status(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	server := clientFlags(fs)
	fs.Parse(args)
	cl, err := newClient(*server)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if fs.NArg() > 0 {
		info, err := cl.Info(ctx, fs.Arg(0))
		if err != nil {
			return err
		}
		printInfo(info)
		return nil
	}
	list, err := cl.List(ctx)
	if err != nil {
		return err
	}
	if len(list) == 0 {
		fmt.Println("no campaigns")
		return nil
	}
	for _, info := range list {
		printInfo(info)
	}
	return nil
}

func printInfo(ci sweepd.CampaignInfo) {
	line := fmt.Sprintf("%s  %-10s %-9s shard=%-5s done=%d/%d running=%d failed=%d reused=%d lag=%d",
		ci.ID, ci.Name, ci.State, ci.Shard, ci.Done, ci.Total, ci.Running, ci.Failed, ci.Reused, ci.CheckpointLag)
	if ci.Error != "" {
		line += "  error=" + ci.Error
	}
	fmt.Println(line)
}

func rows(args []string) error {
	fs := flag.NewFlagSet("rows", flag.ExitOnError)
	server := clientFlags(fs)
	offset := fs.Int("offset", 0, "resume the stream after this row sequence number")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("rows: want exactly one campaign id")
	}
	cl, err := newClient(*server)
	if err != nil {
		return err
	}
	return cl.StreamRows(context.Background(), fs.Arg(0), *offset, func(ev sweepd.RowEvent) error {
		switch {
		case ev.Row != nil:
			fmt.Printf("%d\t%s\tcycles=%d\n", ev.Seq, ev.Row.Key, ev.Row.Cycles)
		case ev.Done:
			fmt.Printf("done\t%s\n", ev.State)
		}
		return nil
	})
}

func artifact(args []string) error {
	fs := flag.NewFlagSet("artifact", flag.ExitOnError)
	server := clientFlags(fs)
	format := fs.String("format", "csv", "artifact format: csv or json")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("artifact: want exactly one campaign id")
	}
	if *format != "csv" && *format != "json" {
		return fmt.Errorf("artifact: -format must be csv or json")
	}
	cl, err := newClient(*server)
	if err != nil {
		return err
	}
	if *out != "" {
		return download(context.Background(), cl, fs.Arg(0), *format, *out)
	}
	data, err := cl.Artifact(context.Background(), fs.Arg(0), *format)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(data)
	return err
}

// telemetryCmd downloads a campaign's per-job flight roll-ups (NDJSON,
// one record per executed job) — the fleet-side replacement for shell
// access to the server's telemetry sidecars.
func telemetryCmd(args []string) error {
	fs := flag.NewFlagSet("telemetry", flag.ExitOnError)
	server := clientFlags(fs)
	partial := fs.Bool("partial", false, "fetch records collected so far on an incomplete campaign")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("telemetry: want exactly one campaign id")
	}
	cl, err := newClient(*server)
	if err != nil {
		return err
	}
	data, err := cl.Telemetry(context.Background(), fs.Arg(0), *partial)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", *out, len(data))
		return nil
	}
	_, err = os.Stdout.Write(data)
	return err
}

func cancel(args []string) error {
	fs := flag.NewFlagSet("cancel", flag.ExitOnError)
	server := clientFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("cancel: want exactly one campaign id")
	}
	cl, err := newClient(*server)
	if err != nil {
		return err
	}
	if err := cl.Cancel(context.Background(), fs.Arg(0)); err != nil {
		return err
	}
	fmt.Printf("campaign %s cancelled\n", fs.Arg(0))
	return nil
}
