package analysis

import (
	"go/types"
)

// WallTime forbids wall-clock reads and the global (implicitly seeded)
// math/rand source in simulation and recording packages: every replayable
// quantity must flow from an explicit seed (a rand.PCG seeded through
// mathutil.SeedPCG, whose state a checkpoint can hold), or a re-run cannot
// reproduce the recorded History. Seeded constructors —
// rand.New(rand.NewPCG(hi, lo)) — are fine; the package-level convenience
// functions and time.Now/Since/Until are not.
// Deliberate wall-clock reads (e.g. exposition-only uptime) carry
// //edgeslice:wallclock <reason>.
var WallTime = &Analyzer{
	Name:        "walltime",
	Doc:         "wall-clock or global math/rand use in a simulation/recording package",
	SuppressKey: "wallclock",
	Match: matchSegments("core", "nn", "rl", "netsim", "scenario", "admm",
		"telemetry", "monitor", "mathutil", "traffic",
		"baseline", "qp"),
	Run: runWallTime,
}

// randConstructors are the explicitly seeded entry points that remain
// allowed; everything else at package level draws from a global or
// self-seeded stream.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runWallTime(p *Pass) {
	for id, obj := range p.Pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			continue // methods (e.g. (*rand.Rand).Float64) are seeded by construction
		}
		switch fn.Pkg().Path() {
		case "time":
			switch fn.Name() {
			case "Now", "Since", "Until":
				p.Reportf(id.Pos(),
					"time.%s reads the wall clock in a simulation/recording path: runs become unreplayable; thread simulated time or justify with //edgeslice:wallclock <reason>",
					fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if !randConstructors[fn.Name()] {
				p.Reportf(id.Pos(),
					"global %s.%s draws from an unseeded stream: route randomness through a seeded *rand.Rand (a rand.PCG seeded by mathutil.SeedPCG) or justify with //edgeslice:wallclock <reason>",
					fn.Pkg().Path(), fn.Name())
			}
		}
	}
}
