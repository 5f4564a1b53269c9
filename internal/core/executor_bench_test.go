package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"edgeslice/internal/baseline"
	"edgeslice/internal/netsim"
	"edgeslice/internal/nn"
	"edgeslice/internal/rcnet"
	"edgeslice/internal/rl"
	"edgeslice/internal/rl/offpolicy"
	"edgeslice/internal/traffic"
)

// BenchmarkRunPeriods measures one Algorithm-1 period across RA counts and
// engines. In the edgeslice legs the deployed policy is a paper-scale 2x128
// actor so inference dominates the interval cost — the workload the batched
// engine exists for. The last two legs are the bench harness's
// local-infer-2048 and local-step-2048 workloads at seed 1
// (benchLocalSystem), so
//
//	go test ./internal/core -run '^$' -bench 'RunPeriods/local-step-2048' -cpuprofile cpu.out
//
// profiles one of them directly. The harness's measured engine numbers
// are in BENCH_42.json at the repository root.
func BenchmarkRunPeriods(b *testing.B) {
	for _, ras := range []int{8, 32, 128, 512, 2048} {
		cfg := DefaultConfig()
		cfg.Algo = AlgoEdgeSlice
		cfg.NumRAs = ras
		s, err := NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		actor := nn.NewMLP(rng, s.Env(0).StateDim(),
			nn.LayerSpec{Out: 128, Act: nn.ActLeakyReLU},
			nn.LayerSpec{Out: 128, Act: nn.ActLeakyReLU},
			nn.LayerSpec{Out: s.Env(0).ActionDim(), Act: nn.ActSigmoid},
		)
		if err := s.SetAgents([]rl.Agent{rl.NewDeployedPolicy(actor, false)}); err != nil {
			b.Fatal(err)
		}
		for _, engine := range []string{EngineSerial, EngineBatched} {
			benchPeriods(b, fmt.Sprintf("algo=edgeslice/ras=%d/engine=%s", ras, engine), s, engine, 0)
		}
	}
	benchPeriods(b, "local-infer-2048", benchLocalSystem(b, AlgoEdgeSlice, 2048), EngineBatched, 3)
	benchPeriods(b, "local-step-2048", benchLocalSystem(b, AlgoTARO, 2048), EngineBatched, 3)
}

// benchLocalSystem builds the bench harness's workload system
// (bench/local.go's coreConfig and build) at seed 1: ras RAs on variable
// traffic with streaming recording over a 100-period window, under one
// shared seeded 2x128 DDPG actor for a learning algorithm (local-infer-2048)
// or the baseline (local-step-2048, remote-tcp-32).
func benchLocalSystem(b *testing.B, algo Algorithm, ras int) *System {
	cfg := DefaultConfig()
	cfg.Algo = algo
	cfg.NumRAs = ras
	cfg.Seed = 1
	cfg.EnvTemplate.Sources = []traffic.Source{
		traffic.VariableSource{Lo: 6, Hi: 14, BlockLen: 10, Seed: 11 + 2*cfg.Seed},
		traffic.VariableSource{Lo: 6, Hi: 14, BlockLen: 10, Seed: 23 + 2*cfg.Seed},
	}
	s, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if algo.IsLearning() {
		dc := offpolicy.DefaultConfig(offpolicy.DDPG)
		dc.Hidden = 128
		dc.Seed = cfg.Seed
		agent, err := offpolicy.New(s.Env(0).StateDim(), s.Env(0).ActionDim(), dc)
		if err == nil {
			err = s.SetAgents([]rl.Agent{agent})
		}
		if err != nil {
			b.Fatal(err)
		}
	} else if err := s.Train(); err != nil {
		b.Fatal(err)
	}
	s.SetRecording(RecordOptions{StreamWindow: 100})
	return s
}

// benchPeriods runs warmup untimed periods of s on a fresh engine, then
// times one period per iteration under name.
func benchPeriods(b *testing.B, name string, s *System, engine string, warmup int) {
	exec, err := NewExecutor(engine, 0)
	if err != nil {
		b.Fatal(err)
	}
	if warmup > 0 {
		if _, err := s.RunPeriodsWith(exec, warmup); err != nil {
			b.Fatal(err)
		}
	}
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := s.RunPeriodsWith(exec, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := exec.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRemoteTCP32 is the bench harness's remote-tcp-32 workload
// (bench/remote.go) at seed 1: one period per iteration of a 32-RA TARO
// system on the remote engine, over a loopback binary-codec hub with one
// RunAgent goroutine per RA stepping an identically seeded twin's
// environment, with streaming recording over a 100-period window and every
// record appended to an on-disk history log. The harness's 100 warm-up
// periods run untimed first.
func BenchmarkRemoteTCP32(b *testing.B) {
	const ras, timeout = 32, 30 * time.Second
	sys, agentSys := benchLocalSystem(b, AlgoTARO, ras), benchLocalSystem(b, AlgoTARO, ras)
	I, T := sys.cfg.EnvTemplate.NumSlices, sys.cfg.EnvTemplate.T
	hub, err := rcnet.NewHub("127.0.0.1:0", I, ras)
	if err != nil {
		b.Fatal(err)
	}
	// Stops the agents on a failed set-up; after e.Close it is a no-op.
	b.Cleanup(func() { _ = hub.Shutdown() })
	done := make(chan error, ras)
	for ra := 0; ra < ras; ra++ {
		c, err := rcnet.DialAgentCodec(hub.Addr(), ra, timeout, rcnet.CodecBinary)
		if err != nil {
			b.Fatal(err)
		}
		env := agentSys.Env(ra)
		policy := rl.AgentFunc(func([]float64) []float64 {
			a, err := baseline.TARO(env.QueueLens(), netsim.NumResources)
			if err != nil {
				panic(err)
			}
			return a
		})
		go func() {
			defer c.Close()
			done <- rcnet.RunAgent(c, env, policy, timeout)
		}()
	}
	if err := hub.WaitRegistered(timeout); err != nil {
		b.Fatal(err)
	}
	log, err := CreateHistoryLog(filepath.Join(b.TempDir(), "run.histlog"), I, ras, T)
	if err != nil {
		b.Fatal(err)
	}
	sys.SetRecording(RecordOptions{StreamWindow: 100, Log: log})
	e := NewRemoteExecutor(hub, timeout)
	if _, err := sys.RunPeriodsWith(e, 100); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := sys.RunPeriodsWith(e, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := e.Close(); err != nil {
		b.Fatal(err)
	}
	for range ras {
		if err := <-done; err != nil {
			b.Error(err)
		}
	}
	if err := log.Close(); err != nil {
		b.Fatal(err)
	}
}
