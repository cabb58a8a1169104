// Package detrand defines an analyzer that keeps nondeterminism out of
// the packages whose output must be a pure function of the seed.
//
// In a deterministic package (lintutil.DeterministicPkgs) it flags:
//
//   - time.Now and time.Since — wall-clock reads. The world generator,
//     dataset builder, and analyses must derive every timestamp from
//     the seeded simulation clock, never from the host.
//   - every package-level function of math/rand and math/rand/v2
//     (rand.Intn, rand.Float64, rand.Shuffle, rand.Perm, rand.Read, …)
//     — these draw from the process-global generator, whose stream is
//     shared across goroutines and therefore schedule-dependent. Only
//     explicitly seeded sources threaded through parameters are
//     allowed: rand.New, rand.NewSource, and rand.NewZipf stay legal,
//     as do all methods on a *rand.Rand value.
//
// PR 3 exists because exactly this class of bug is invisible in review:
// a single global-rand draw in a worker makes the world depend on the
// goroutine schedule, and the golden workers=1-vs-8 tests only catch it
// after the fact.
package detrand

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"ensdropcatch/internal/lint/lintutil"
)

// Analyzer flags wall-clock and global-RNG use in deterministic packages.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc:  "forbid time.Now and global math/rand in deterministic (seed-reproducible) packages",
	Run:  run,
}

// seededConstructors are the math/rand package-level functions that do
// not touch the global generator: they build a generator from a caller
// supplied seed or source.
var seededConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !lintutil.IsDeterministicPkg(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range lintutil.NonTestFiles(pass) {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			// Methods (e.g. (*rand.Rand).Intn on a seeded source) are fine;
			// only package-level functions reach the global state.
			if fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
					pass.Reportf(sel.Pos(), "time.%s in deterministic package %s: derive timestamps from the seeded simulation clock, not the host wall clock", fn.Name(), pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				if !seededConstructors[fn.Name()] {
					pass.Reportf(sel.Pos(), "global rand.%s in deterministic package %s: draws from the process-global generator (schedule-dependent); thread an explicitly seeded *rand.Rand instead", fn.Name(), pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil, nil
}
