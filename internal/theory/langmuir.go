package theory

import "math"

// Langmuir-wave theory for a single (non-drifting) electron population —
// used to validate the PIC substrate independently of the two-stream
// problem. These are textbook results (Birdsall & Langdon ch. 5).

// BohmGross returns the Bohm-Gross frequency of a Langmuir wave at
// wavenumber k in a plasma with frequency wp and thermal speed vth:
//
//	omega^2 = wp^2 + 3 k^2 vth^2.
//
//deadcode:keep pic TestBohmGrossDispersion: the Langmuir-wave reference
func BohmGross(k, wp, vth float64) float64 {
	return math.Sqrt(wp*wp + 3*k*k*vth*vth)
}

// LandauDampingRate returns the Landau damping rate (positive value) of
// a Langmuir wave in a Maxwellian plasma, in the standard weak-damping
// approximation
//
//	gamma = sqrt(pi/8) * wp / (k lD)^3 * exp(-1/(2 (k lD)^2) - 3/2),
//
// with the Debye length lD = vth / wp. Accurate for k lD <~ 0.5; returns
// 0 for non-positive inputs.
//
//deadcode:keep vlasov TestVlasovLandauDamping: the Landau-damping reference
func LandauDampingRate(k, wp, vth float64) float64 {
	if k <= 0 || wp <= 0 || vth <= 0 {
		return 0
	}
	kld := k * vth / wp
	k3 := kld * kld * kld
	return math.Sqrt(math.Pi/8) * wp / k3 * math.Exp(-1/(2*kld*kld)-1.5)
}
