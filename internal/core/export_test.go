package core

// Hooks for the external test package, which alone can import datagen
// (datagen → evaluate → core): the evaluation step, and discovery with the
// evaluation step of the caller's choice.
type Evaluator = evaluator

var (
	Evaluate     Evaluator = evaluate
	DiscoverWith           = discover
)
