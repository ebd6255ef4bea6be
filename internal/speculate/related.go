package speculate

// Related-work baselines (Section VII of the paper).

// CASA models "CASA: Correlation-aware speculative adders" (Liu, Tao,
// Tan, Zhang — ISLPED 2014): a *static*, operand-derived prediction with
// no history. For each boundary it predicts the carry out of the
// preceding slice from that slice's operand MSBs — carry is likely iff at
// least one MSB is set (and certain when both are, impossible when
// neither is, which is the same observation ST² refines into Peek).
type CASA struct {
	G Geometry
}

// NewCASA builds the baseline.
func NewCASA(g Geometry) *CASA { return &CASA{G: g} }

// PredictWarp implements Predictor. Boundary i carries iff at least one
// of the preceding slice's operand MSBs is set (certain when both are,
// impossible when neither is, and CASA bets on propagation completing
// when exactly one is): one MSB gather of ea|eb per lane, then one
// transpose into planes.
func (c *CASA) PredictWarp(_, _, active, _ uint32, ea, eb []uint64, pred, static []uint32) {
	var lanes [32]uint64
	for j := range ea {
		lanes[j] = c.G.sliceMSBs(ea[j] | eb[j])
	}
	LanesToPlanes(active, lanes[:len(ea)], pred)
	clear(static)
}

// UpdateWarp implements Predictor (CASA is stateless).
func (c *CASA) UpdateWarp(_, _, _, _, _ uint32, _, _ []uint64, _ []uint32) {}

// VLSA models "Variable latency speculative addition" (Verma, Brisk,
// Ienne — DATE 2008): the original variable-latency adder. Its carry
// speculation is the simple static zero (it relies on the rarity of long
// carry chains); what it pioneered — detection and multi-cycle correction
// — is shared by every design in this repository's framework. It is kept
// as a named design so sweeps can reference the lineage explicitly.
type VLSA struct {
	G Geometry
}

// NewVLSA builds the baseline.
func NewVLSA(g Geometry) *VLSA { return &VLSA{G: g} }

// PredictWarp implements Predictor: all carries speculated zero.
func (v *VLSA) PredictWarp(_, _, _, _ uint32, _, _ []uint64, pred, static []uint32) {
	clear(pred)
	clear(static)
}

// UpdateWarp implements Predictor (VLSA is stateless).
func (v *VLSA) UpdateWarp(_, _, _, _, _ uint32, _, _ []uint64, _ []uint32) {}
