package simnet

// RunSerialSteps replays src on one event engine, like an unsharded
// RunSource, and also returns the number of events the engine executed.
func RunSerialSteps(n *Network, src Source) (Result, uint64, error) {
	st, err := n.runSerial(src)
	return st.res, st.eng.Steps(), err
}
