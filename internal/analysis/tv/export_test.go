package tv

import "csspgo/internal/ir"

// Interpret runs p's main on args under an execution context built from p
// itself, for tests outside the package.
func Interpret(p *ir.Program, args []int64) RunResult {
	return newExecContext(p, 0).Run(p, args)
}

// GlobalsHash digests a flat global image the way RunResult.GlobalHash does.
var GlobalsHash = globalsHash
