package shard

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/bind"
	"repro/internal/core"
)

// FuzzShardMatchesLocal is the metamorphic invariant "distributed ==
// single-process": for any tiny workload, shard count, partition seed,
// and worker count, a healthy shard.Run must serialize to exactly the
// report JSON of core.AnalyzeIterative and end its loop the same way.
func FuzzShardMatchesLocal(f *testing.F) {
	names := []string{"bus", "ladder", "fabric"}
	type local struct {
		b            *bind.Design
		opts         core.Options
		want         *core.IterativeResult
		noise, delay []byte
	}
	locals := map[string]*local{}
	f.Add(uint8(0), uint8(2), int64(1), uint8(2))
	f.Add(uint8(1), uint8(5), int64(7), uint8(3))
	f.Add(uint8(2), uint8(3), int64(-3), uint8(1))
	f.Add(uint8(0), uint8(1), int64(0), uint8(1))
	f.Fuzz(func(t *testing.T, fixture, shards uint8, seed int64, workers uint8) {
		name := names[int(fixture)%len(names)]
		nShards, nWorkers := 1+int(shards)%5, 1+int(workers)%3
		l := locals[name]
		if l == nil {
			b, opts := bindFixture(t, fixtures()[name])
			// Two engine workers take evalWave's parallel path, in shard
			// engines as in the local run; TestDistributedMatchesSerial
			// covers the serial one.
			opts.Workers = 2
			want, err := core.AnalyzeIterative(b, opts, 0)
			if err != nil {
				t.Fatal(err)
			}
			l = &local{b: b, opts: opts, want: want}
			l.noise, l.delay = reportBytes(t, want.Noise, want.Delay)
			locals[name] = l
		}
		got, err := Run(context.Background(), Config{
			B:       l.b,
			Opts:    l.opts,
			Workers: inprocWorkers(fixtures()[name], l.opts, nWorkers),
			Shards:  nShards,
			Seed:    seed,
			Token:   fmt.Sprintf("fuzz-%s-%d-%d", name, nShards, seed),
		})
		if err != nil {
			t.Fatalf("%s, %d shards, seed %d, %d workers: %v", name, nShards, seed, nWorkers, err)
		}
		if got.Degraded || got.Reassigns != 0 {
			t.Fatalf("%s: healthy run degraded=%v reassigns=%d", name, got.Degraded, got.Reassigns)
		}
		if got.Rounds != l.want.Rounds || got.Converged != l.want.Converged {
			t.Fatalf("%s: loop ended (%d, %v), single-process (%d, %v)",
				name, got.Rounds, got.Converged, l.want.Rounds, l.want.Converged)
		}
		noise, delay := reportBytes(t, got.Noise, got.Delay)
		if !bytes.Equal(noise, l.noise) || !bytes.Equal(delay, l.delay) {
			t.Fatalf("%s, %d shards, seed %d, %d workers: report differs from single-process",
				name, nShards, seed, nWorkers)
		}
	})
}
