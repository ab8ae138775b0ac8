package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ftnet/internal/fterr"
	"ftnet/internal/server"
	"ftnet/internal/validate"
)

// runServe starts ftnetd: one long-lived ftnet.Session per configured
// topology behind the HTTP/JSON wire protocol of internal/server, with
// request batching, read-mostly embedding snapshots, disk
// snapshot/restore and Prometheus-style metrics.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "listen address")
	snapshotDir := fs.String("snapshot-dir", "", "directory for session snapshots (empty = snapshots disabled)")
	flushInterval := fs.Duration("flush-interval", server.DefaultFlushInterval,
		"periodic flush of pending async mutations (0 = disabled)")
	deltaRing := fs.Int("delta-ring", server.DefaultDeltaRing,
		"per-topology count of recent generation diffs kept for ?since= and /watch catch-up")
	chaosSpec := fs.String("chaos", os.Getenv("FTNET_CHAOS"),
		"fault-injection spec key=value[,...]: latency-p, latency, error-p, drop-p, corrupt-p, evict-p, seed (default $FTNET_CHAOS; empty = disabled)")
	var topos topoSpecs
	fs.Var(&topos, "topology", "hosted topology spec id=NAME,d=D,side=N,eps=E (repeatable; default id=default,d=2,side=64,eps=0.5)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(topos.specs) == 0 {
		tc, err := server.ParseTopologySpec("id=default,d=2,side=64,eps=0.5")
		if err != nil {
			return err
		}
		topos.specs = append(topos.specs, tc)
	}
	if *flushInterval < 0 {
		return fterr.New(fterr.Invalid, "serve", "-flush-interval must be >= 0, got %v", *flushInterval)
	}
	if err := validate.Min("serve: -delta-ring", *deltaRing, 1); err != nil {
		return err
	}
	chaos, err := server.ParseChaos(*chaosSpec)
	if err != nil {
		return fmt.Errorf("serve: -chaos: %w", err)
	}
	cfg := server.Config{
		Topologies:    topos.specs,
		SnapshotDir:   *snapshotDir,
		FlushInterval: *flushInterval, // 0 disables, same as the Config encoding
		DeltaRing:     *deltaRing,
		Chaos:         chaos,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Addr: *listen, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("ftnetd: serving %d topologies on %s\n", len(cfg.Topologies), *listen)
		if cfg.Chaos.Enabled() {
			fmt.Printf("  chaos injection ON: %+v\n", cfg.Chaos)
		}
		for _, tc := range cfg.Topologies {
			fmt.Printf("  /v1/topologies/%s  (d=%d minSide=%d eps=%g)\n", tc.ID, tc.D, tc.MinSide, tc.MaxEps)
		}
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Println("ftnetd: shutting down")
	// Watch streams never end on their own; disconnect them or Shutdown
	// waits out its whole timeout on every connected subscriber.
	srv.DisconnectWatchers()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		srv.Close()
		return err
	}
	// Workers flush applied mutations and, with -snapshot-dir set, the
	// final committed state is persisted for the next start.
	return srv.Close()
}

// topoSpecs collects repeated -topology flags.
type topoSpecs struct {
	specs []server.TopologyConfig
}

func (t *topoSpecs) String() string { return fmt.Sprintf("%d topologies", len(t.specs)) }

func (t *topoSpecs) Set(s string) error {
	tc, err := server.ParseTopologySpec(s)
	if err != nil {
		return err
	}
	t.specs = append(t.specs, tc)
	return nil
}
