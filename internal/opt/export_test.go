package opt

// Rules returns the rule batch Optimize runs, for the external tests.
func (pl *Planner) Rules() []Rule { return pl.rules }
