package verify

// SetRunOne replaces the function the Lockstep judge runs a pair with,
// until the returned restore is called.
func SetRunOne(f func(MachineSpec, ProgramSpec) error) (restore func()) {
	old := runOne
	runOne = f
	return func() { runOne = old }
}
