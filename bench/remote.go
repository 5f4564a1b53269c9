package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"edgeslice/internal/baseline"
	"edgeslice/internal/core"
	"edgeslice/internal/netsim"
	"edgeslice/internal/rcnet"
	"edgeslice/internal/rl"
)

// netTimeout bounds every dial, registration wait and per-period collect;
// nothing on a healthy loopback comes near it.
const netTimeout = 30 * time.Second

// remoteWarmupPeriods is longer than the local warm-up: fresh TCP
// connections, socket buffers and 33 goroutines' stacks settle over tens of
// periods, and a set-up of a few milliseconds could not be timed steadily.
const remoteWarmupPeriods = 100

// remoteConfig is the generated input of remote-tcp-32. The hub listens on
// the host loopback: no real link is crossed, and the numbers say nothing
// about one.
type remoteConfig struct {
	localConfig
	Listen string `json:"listen"`
	Shards int    `json:"shards"`
	Codec  string `json:"codec"`
	Log    string `json:"history_log"`
}

// taroPolicy is the queue-proportional baseline as an rcnet agent policy.
func taroPolicy(env *netsim.RAEnv) rl.Agent {
	return rl.AgentFunc(func([]float64) []float64 {
		a, err := baseline.TARO(env.QueueLens(), netsim.NumResources)
		if err != nil {
			panic(err) // only a malformed queue vector, which the env cannot produce
		}
		return a
	})
}

// fleet is one hub with one connected agent goroutine per RA — the
// protocol's own topology, not a set of load-generator clients.
type fleet struct {
	hub     *rcnet.Hub
	clients []*rcnet.AgentClient
	wg      sync.WaitGroup
	errs    []error
}

// startFleet listens, dials numRAs agents with the codec, starts loop for
// each and waits until all are registered. On error everything already
// started is torn down.
func startFleet(numSlices, numRAs, shards int, codec rcnet.Codec, loop func(ra int, c *rcnet.AgentClient) error) (*fleet, error) {
	hub, err := rcnet.NewShardedHub("127.0.0.1:0", numSlices, numRAs, shards)
	if err != nil {
		return nil, err
	}
	f := &fleet{hub: hub, errs: make([]error, numRAs)}
	for ra := 0; ra < numRAs; ra++ {
		c, err := rcnet.DialAgentCodec(hub.Addr(), ra, netTimeout, codec)
		if err != nil {
			return nil, errors.Join(err, f.stop())
		}
		f.clients = append(f.clients, c)
		f.wg.Add(1)
		go func(ra int) {
			defer f.wg.Done()
			f.errs[ra] = loop(ra, c)
		}(ra)
	}
	if err := hub.WaitRegistered(netTimeout); err != nil {
		return nil, errors.Join(err, f.stop())
	}
	return f, nil
}

// stop shuts the hub down (which tells every agent loop to return), waits
// for the agent goroutines, closes their connections and reports the first
// failure of any of it.
func (f *fleet) stop() error {
	err := f.hub.Shutdown()
	f.wg.Wait()
	for ra, c := range f.clients {
		// The hub closed its end first, so the agent-side Close has nothing
		// left to flush; only the loop's own error is evidence of a fault.
		_ = c.Close()
		if f.errs[ra] != nil && err == nil {
			err = fmt.Errorf("agent %d: %w", ra, f.errs[ra])
		}
	}
	return err
}

// dropped is every report or connection the hub discarded; a healthy run
// has none.
func (f *fleet) dropped() uint64 {
	st := f.hub.Stats()
	return st.ReportsDropped + st.ConnsDropped
}

// remoteWorkload drives core.RemoteExecutor over a loopback hub with one
// RunAgent goroutine per RA, logging to disk as a resumable coordinator
// does (workload remote-tcp-32).
type remoteWorkload struct {
	cfg     remoteConfig
	tmpRoot string
	dir     string
	sys     *core.System
	fleet   *fleet
	exec    *core.RemoteExecutor
	hlog    *core.HistoryLog
	periods int
}

func newRemoteWorkload(seed int64, sc scale, tmpRoot string) *remoteWorkload {
	return &remoteWorkload{tmpRoot: tmpRoot, cfg: remoteConfig{
		localConfig: localConfig{
			Algo: "taro", RAs: sc.Agents, Slices: 2, T: 10, Hidden: 128,
			Engine: core.EngineRemote, Window: streamWindow, Seed: seed, Warmup: remoteWarmupPeriods,
		},
		Listen: "127.0.0.1:0 (loopback)", Shards: 1, Codec: rcnet.CodecBinary.String(),
	}}
}

func (w *remoteWorkload) config() any { return w.cfg }

func (w *remoteWorkload) shape() layerShape {
	lc := w.cfg.localConfig
	lc.Engine = core.EngineBatched
	return layerShape{local: lc, periodsPerOp: 1, raPeriodsPerOp: lc.RAs}
}

func (w *remoteWorkload) setup() error {
	var err error
	if w.dir, err = os.MkdirTemp(w.tmpRoot, "remote-"); err != nil {
		return err
	}
	w.cfg.Log = filepath.Join(w.dir, "run.histlog")
	lc := w.cfg.localConfig
	// The agents step the environments of a second, identically seeded
	// system: NewSystem is the one place that derives per-RA seeds.
	agentSys, err := lc.newSystem()
	if err != nil {
		return err
	}
	if w.sys, err = lc.newSystem(); err != nil {
		return err
	}
	w.fleet, err = startFleet(lc.Slices, lc.RAs, w.cfg.Shards, rcnet.CodecBinary,
		func(ra int, c *rcnet.AgentClient) error {
			env := agentSys.Env(ra)
			return rcnet.RunAgent(c, env, taroPolicy(env), netTimeout)
		})
	if err != nil {
		return err
	}
	if w.hlog, err = core.CreateHistoryLog(w.cfg.Log, lc.Slices, lc.RAs, lc.T); err != nil {
		return err
	}
	w.sys.SetRecording(core.RecordOptions{StreamWindow: lc.Window, Log: w.hlog})
	w.exec = core.NewRemoteExecutor(w.fleet.hub, netTimeout)
	for p := 0; p < lc.Warmup; p++ {
		if _, err := w.op(); err != nil {
			return err
		}
	}
	return nil
}

func (w *remoteWorkload) op() (int, error) {
	h, err := w.sys.RunPeriodsWith(w.exec, 1)
	if err != nil {
		return 1, err
	}
	if h.Periods() != 1 {
		return 1, fmt.Errorf("period recorded %d periods, want 1", h.Periods())
	}
	w.periods++
	return 1, nil
}

// verify is gate (ii): the head of the on-disk log equals a local serial
// run's log byte for byte, the whole log replays untruncated with every
// period, and the hub dropped nothing.
func (w *remoteWorkload) verify() error {
	if n := w.fleet.dropped(); n != 0 {
		return fmt.Errorf("hub dropped %d report(s)/connection(s)", n)
	}
	if err := w.hlog.Sync(); err != nil {
		return err
	}
	head := min(w.periods, 50)
	want, err := w.cfg.localConfig.engineLogBytes(core.EngineSerial, head)
	if err != nil {
		return fmt.Errorf("serial twin: %w", err)
	}
	got, err := os.ReadFile(w.cfg.Log)
	if err != nil {
		return err
	}
	if len(got) < len(want) || !bytes.Equal(got[:len(want)], want) {
		return fmt.Errorf("gate (ii): first %d periods of the remote log differ from a local serial run", head)
	}
	h, truncated, err := core.ReplayHistoryLogFile(w.cfg.Log)
	if err != nil {
		return err
	}
	if truncated || h.Periods() != w.periods {
		return fmt.Errorf("gate (ii): log replays %d periods (truncated=%v), want %d", h.Periods(), truncated, w.periods)
	}
	return nil
}

func (w *remoteWorkload) close() error {
	var errs []error
	switch {
	case w.exec != nil:
		// The executor owns the hub session; Close shuts the hub down and
		// is idempotent, so the fleet's own Shutdown below is a no-op.
		errs = append(errs, w.exec.Close(), w.fleet.stop())
	case w.fleet != nil:
		errs = append(errs, w.fleet.stop())
	}
	if w.hlog != nil {
		errs = append(errs, w.hlog.Close())
	}
	if w.dir != "" {
		errs = append(errs, os.RemoveAll(w.dir))
	}
	return errors.Join(errs...)
}
