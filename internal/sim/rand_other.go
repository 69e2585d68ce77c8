//go:build !amd64

package sim

// normalsExp turns the uniforms in z (u1) and v (u2) into normals in z and
// their lognormals exp(sigma·z) in v. Only amd64 has a kernel for it.
func normalsExp(z, v *[logNormalBlock]float64, sigma float64) {
	normalsExpGo(z, v, sigma)
}
