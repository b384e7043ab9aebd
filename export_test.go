package indexeddf

import "indexeddf/internal/opt"

// NewAblatedSession creates a Session with the strategies in ablate
// switched off, so tests and benchmarks can compare each strategy
// against its reference path.
func NewAblatedSession(cfg Config, ablate opt.Ablation) *Session {
	return newSession(cfg, ablate)
}
