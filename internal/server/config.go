package server

import (
	"strconv"
	"strings"
	"time"

	"ftnet/internal/fterr"
	"ftnet/internal/validate"
)

// TopologyConfig describes one hosted Theorem 2 topology.
type TopologyConfig struct {
	// ID names the topology in URLs, metrics and snapshot files.
	ID string
	// D is the guest dimension (>= 2).
	D int
	// MinSide is the minimum guest torus side; the host fits the exact
	// side (see ftnet.NewRandomFaultTorus).
	MinSide int
	// MaxEps bounds the node redundancy (host nodes <= (1+MaxEps) n^d).
	MaxEps float64
}

// Validate checks one topology spec.
func (t TopologyConfig) Validate() error {
	if t.ID == "" {
		return fterr.New(fterr.Invalid, "server.config", "topology id must be non-empty")
	}
	for _, r := range t.ID {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_') {
			return fterr.New(fterr.Invalid, "server.config", "topology id %q: only letters, digits, '-' and '_' are allowed", t.ID)
		}
	}
	if err := validate.Min("topology "+t.ID+": d", t.D, 2); err != nil {
		return err
	}
	if err := validate.Min("topology "+t.ID+": side", t.MinSide, 1); err != nil {
		return err
	}
	return validate.Positive("topology "+t.ID+": eps", t.MaxEps)
}

// ParseTopologySpec parses the CLI form "id=main,d=2,side=200,eps=0.5".
// d defaults to 2 and eps to 0.5; id and side are required.
func ParseTopologySpec(spec string) (TopologyConfig, error) {
	tc := TopologyConfig{D: 2, MaxEps: 0.5}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return tc, fterr.New(fterr.Invalid, "server.config", "topology spec %q: %q is not key=value", spec, part)
		}
		var err error
		switch key {
		case "id":
			tc.ID = val
		case "d":
			tc.D, err = strconv.Atoi(val)
		case "side":
			tc.MinSide, err = strconv.Atoi(val)
		case "eps":
			tc.MaxEps, err = strconv.ParseFloat(val, 64)
		default:
			return tc, fterr.New(fterr.Invalid, "server.config", "topology spec %q: unknown key %q (want id, d, side, eps)", spec, key)
		}
		if err != nil {
			return tc, fterr.New(fterr.Invalid, "server.config", "topology spec %q: bad %s: %v", spec, key, err)
		}
	}
	if tc.ID == "" || tc.MinSide == 0 {
		return tc, fterr.New(fterr.Invalid, "server.config", "topology spec %q: id and side are required", spec)
	}
	return tc, tc.Validate()
}

// Config parameterizes the daemon.
type Config struct {
	// Topologies lists the hosted topologies; at least one is required.
	Topologies []TopologyConfig
	// SnapshotDir, if non-empty, enables snapshot/restore: POST
	// /v1/topologies/{id}/snapshot writes <dir>/<id>.json, and startup
	// restores each topology whose snapshot file exists.
	SnapshotDir string
	// FlushInterval is the periodic flush of pending asynchronous
	// mutations. <= 0 disables the timer: pending work then waits for an
	// explicit reembed or the next synchronous request. The CLI flag
	// defaults to DefaultFlushInterval; callers constructing a Config
	// directly must opt in explicitly.
	FlushInterval time.Duration
	// DeltaRing bounds each topology's chain of per-commit column diffs:
	// GET .../embedding?since=g is answerable while head-g <= DeltaRing
	// (older generations get 410 Gone and resync from the full
	// embedding). 0 means the default of 64; negative is invalid.
	DeltaRing int
	// Chaos parameterizes the fault-injection middleware (the -chaos
	// flag / FTNET_CHAOS env); the zero value disables it.
	Chaos ChaosConfig
}

// Defaults for the flush timer and the delta ring.
// DefaultFlushInterval is applied by the serve subcommand's flag
// default, not by Config (whose zero value means "no flush timer").
const (
	DefaultFlushInterval = 250 * time.Millisecond
	DefaultDeltaRing     = 64
)

// Validate checks the whole daemon configuration, using the same helpers
// as the churn CLI flags.
func (c Config) Validate() error {
	if len(c.Topologies) == 0 {
		return fterr.New(fterr.Invalid, "server.config", "server: no topologies configured")
	}
	seen := make(map[string]bool, len(c.Topologies))
	for _, t := range c.Topologies {
		if err := t.Validate(); err != nil {
			return fterr.New(fterr.Invalid, "server.config", "server: %v", err)
		}
		if seen[t.ID] {
			return fterr.New(fterr.Invalid, "server.config", "server: duplicate topology id %q", t.ID)
		}
		seen[t.ID] = true
	}
	if err := validate.Min("server: delta ring", c.DeltaRing, 0); err != nil {
		return err
	}
	return c.Chaos.Validate()
}

// flushInterval clamps the flush timer: <= 0 disables.
func (c Config) flushInterval() time.Duration {
	if c.FlushInterval <= 0 {
		return 0
	}
	return c.FlushInterval
}

// deltaRing resolves the delta chain bound's default.
func (c Config) deltaRing() int {
	if c.DeltaRing <= 0 {
		return DefaultDeltaRing
	}
	return c.DeltaRing
}
