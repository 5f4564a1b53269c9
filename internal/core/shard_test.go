package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"edgeslice/internal/rcnet"
)

// shardTestConfig widens the executor-test config to 5 RAs so a 4-shard
// hub gets a genuinely uneven split ([0,2) [2,3) [3,4) [4,5)).
func shardTestConfig(algo Algorithm) Config {
	cfg := execTestConfig(algo)
	cfg.NumRAs = 5
	return cfg
}

// TestShardedRemoteMatchesSerial is the tentpole's determinism gate: the
// remote engine over a sharded hub must reproduce the serial run bit for
// bit — its History — for shard counts 1, 2, and 4,
// including the uneven 4-shard split of 5 RAs.
func TestShardedRemoteMatchesSerial(t *testing.T) {
	cfg := shardTestConfig(AlgoTARO)
	const periods = 3
	ref := deployedSystem(t, cfg)
	hRef, err := ref.RunPeriods(periods)
	if err != nil {
		t.Fatal(err)
	}
	I := cfg.EnvTemplate.NumSlices
	J := cfg.NumRAs
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			hub, err := rcnet.NewShardedHub("127.0.0.1:0", I, J, shards)
			if err != nil {
				t.Fatal(err)
			}
			dones := make([]chan error, J)
			for j := 0; j < J; j++ {
				_, dones[j] = startRemoteAgent(t, hub, cfg, j)
			}
			if err := hub.WaitRegistered(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e := NewRemoteExecutor(hub, 10*time.Second)
			h, err := sys.RunPeriodsWith(e, periods)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < J; j++ {
				if err := <-dones[j]; err != nil {
					t.Errorf("agent %d: %v", j, err)
				}
			}
			requireSameRun(t, fmt.Sprintf("sharded shards=%d", shards), hRef, h)
		})
	}
}

// TestShardedRemoteSurvivesAgentKillAndRestart reruns the kill-and-restart
// acceptance shape against a 4-shard hub: the victim crashes on receiving
// period 2's broadcast, its replacement re-registers into its shard, replays
// the resume frame, serves the retried period — and the stitched run stays
// bit-identical to an uninterrupted serial run.
func TestShardedRemoteSurvivesAgentKillAndRestart(t *testing.T) {
	cfg := shardTestConfig(AlgoTARO)
	const (
		periods     = 4
		victim      = 2
		crashPeriod = 2
	)
	ref := deployedSystem(t, cfg)
	hRef, err := ref.RunPeriods(periods)
	if err != nil {
		t.Fatal(err)
	}

	I := cfg.EnvTemplate.NumSlices
	J := cfg.NumRAs
	hub, err := rcnet.NewShardedHub("127.0.0.1:0", I, J, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	agentErrs := make([]error, J)
	for j := 0; j < J; j++ {
		if j == victim {
			continue
		}
		j := j
		env := remoteAgentEnv(t, cfg, j)
		client, err := rcnet.DialAgent(hub.Addr(), j, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.Close()
			agentErrs[j] = rcnet.RunAgent(client, env, taroFor(env), 10*time.Second)
		}()
	}

	env1 := remoteAgentEnv(t, cfg, victim)
	c1, err := rcnet.DialAgent(hub.Addr(), victim, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		pol := taroFor(env1)
		for {
			m, err := c1.Recv(10 * time.Second)
			if err != nil {
				agentErrs[victim] = err
				return
			}
			if m.Type != rcnet.MsgCoordination {
				continue
			}
			if m.Period == crashPeriod {
				_ = c1.Close() // crash mid-period, before reporting
				break
			}
			perf, queues, recs, err := stepAgentPeriod(env1, pol, m.Z, m.Y)
			if err != nil {
				agentErrs[victim] = err
				return
			}
			if err := c1.Report(m.Period, perf, queues, recs); err != nil {
				agentErrs[victim] = err
				return
			}
		}
		// Second incarnation: fresh env, same seed; the shard's resume frame
		// replays periods 0..crashPeriod-1, then the retry broadcast delivers
		// crashPeriod live.
		env2 := remoteAgentEnv(t, cfg, victim)
		c2, err := rcnet.DialAgent(hub.Addr(), victim, 5*time.Second)
		if err != nil {
			agentErrs[victim] = err
			return
		}
		defer c2.Close()
		agentErrs[victim] = rcnet.RunAgent(c2, env2, taroFor(env2), 10*time.Second)
	}()

	if err := hub.WaitRegistered(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewRemoteExecutorWithOptions(hub, RemoteOptions{Timeout: time.Second, RetryPeriods: 5})
	h, err := sys.RunPeriodsWith(e, periods)
	if err != nil {
		t.Fatal(err)
	}
	stats := hub.Stats()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for j, err := range agentErrs {
		if err != nil {
			t.Errorf("agent %d: %v", j, err)
		}
	}
	if stats.Shards != 4 {
		t.Errorf("hub reports %d shards, want 4", stats.Shards)
	}
	if stats.Reconnects < 1 || stats.ResumesSent < 1 {
		t.Errorf("stats = %+v, want at least one reconnect and one resume frame", stats)
	}
	requireSameRun(t, "sharded kill-restart", hRef, h)
}
