package rfenv

import (
	"fmt"
	"math"

	"github.com/wsdetect/waldo/internal/geo"
)

// ShadowField is a deterministic, spatially correlated log-normal shadowing
// field. Empirical data (Gudmundson, paper ref [29]) put the autocorrelation
// of shadowing at R(d) = e^{-d/a}; the field here realises that behaviour
// with two octaves of value noise: Gaussian lattice nodes spaced at the
// decorrelation distance, bilinearly interpolated, plus a coarser octave
// that produces the multi-kilometer terrain structure responsible for the
// white-space "pockets" of Figure 1.
//
// The field is a pure function of (seed, location): evaluating the same
// point twice always returns the same value, so all three sensors observe
// the same physical world, and campaigns are reproducible.
type ShadowField struct {
	seed     uint64
	sigmaDB  float64
	decorrM  float64
	coarseM  float64
	coarseW  float64 // weight of the coarse octave, in [0,1]
	fineW    float64
	origin   *geo.Projector
	anchored bool

	// Temporal blending: when mixBase is set, the field evaluates to
	// mixRho·mixBase + √(1−mixRho²)·own — a realization correlated
	// mixRho with the base, modelling seasonal change (foliage, new
	// construction) between collection passes (§3.4).
	mixBase *ShadowField
	mixRho  float64
}

// shadowConfig parameterizes a shadow field.
type shadowConfig struct {
	// Seed selects the realization.
	Seed uint64
	// SigmaDB is the total standard deviation of the field (urban TV-band
	// measurements are typically 5.5–8 dB). Default 6.
	SigmaDB float64
	// DecorrelationM is the fine-scale decorrelation distance a in
	// R(d)=e^{-d/a}. Urban values are tens of meters; the paper's
	// campaign spaces readings >20 m for this reason. Default 120 m.
	DecorrelationM float64
	// CoarseScaleM is the lattice spacing of the terrain-scale octave.
	// Default 6000 m — this is what makes pockets larger than the 6 km
	// protection radius possible. Default 6000.
	CoarseScaleM float64
	// CoarseWeight is the fraction of variance carried by the coarse
	// octave, in [0,1]. Default 0.65.
	CoarseWeight float64
}

// newShadowField builds a field anchored at origin.
func newShadowField(origin geo.Point, cfg shadowConfig) *ShadowField {
	if cfg.SigmaDB == 0 {
		cfg.SigmaDB = 6
	}
	if cfg.DecorrelationM == 0 {
		cfg.DecorrelationM = 120
	}
	if cfg.CoarseScaleM == 0 {
		cfg.CoarseScaleM = 6000
	}
	if cfg.CoarseWeight == 0 {
		cfg.CoarseWeight = 0.65
	}
	cw := clamp(cfg.CoarseWeight, 0, 1)
	return &ShadowField{
		seed:     cfg.Seed,
		sigmaDB:  cfg.SigmaDB,
		decorrM:  cfg.DecorrelationM,
		coarseM:  cfg.CoarseScaleM,
		coarseW:  math.Sqrt(cw),
		fineW:    math.Sqrt(1 - cw),
		origin:   geo.NewProjector(origin),
		anchored: true,
	}
}

// AtPoint returns the shadowing value (dB, zero-mean) at p.
func (f *ShadowField) AtPoint(p geo.Point) float64 {
	return f.AtXY(f.origin.ToXY(p))
}

// AtXY returns the shadowing value (dB, zero-mean) at planar position xy.
func (f *ShadowField) AtXY(xy geo.XY) float64 {
	fine := f.valueNoise(xy, f.decorrM, 0x9E3779B97F4A7C15)
	coarse := f.valueNoise(xy, f.coarseM, 0xC2B2AE3D27D4EB4F)
	own := f.sigmaDB * (f.fineW*fine + f.coarseW*coarse)
	if f.mixBase != nil {
		return f.mixRho*f.mixBase.AtXY(xy) + math.Sqrt(1-f.mixRho*f.mixRho)*own
	}
	return own
}

// NewBlendedShadowField returns a realization correlated rho ∈ [0, 1] with
// base: the returned field equals rho·base + √(1−rho²)·fresh, preserving
// the base's total variance. rho = 1 reproduces base exactly; rho = 0 is an
// independent world.
func NewBlendedShadowField(base, fresh *ShadowField, rho float64) (*ShadowField, error) {
	if base == nil || fresh == nil {
		return nil, fmt.Errorf("rfenv: blend needs both fields")
	}
	if rho < 0 || rho > 1 {
		return nil, fmt.Errorf("rfenv: blend correlation %v outside [0,1]", rho)
	}
	out := *fresh
	out.mixBase = base
	out.mixRho = rho
	return &out, nil
}

// valueNoise evaluates one octave: bilinear interpolation of unit Gaussians
// hashed at lattice nodes with the given spacing. Bilinear blending of four
// iid N(0,1) nodes has variance < 1 between nodes; the correction below
// renormalizes so the octave variance stays ≈ 1 everywhere.
func (f *ShadowField) valueNoise(xy geo.XY, spacing float64, salt uint64) float64 {
	gx := xy.X / spacing
	gy := xy.Y / spacing
	x0 := math.Floor(gx)
	y0 := math.Floor(gy)
	tx := gx - x0
	ty := gy - y0
	// Smoothstep keeps the field C¹, avoiding lattice creases.
	sx := tx * tx * (3 - 2*tx)
	sy := ty * ty * (3 - 2*ty)

	ix, iy := int64(x0), int64(y0)
	v00 := f.node(ix, iy, salt)
	v10 := f.node(ix+1, iy, salt)
	v01 := f.node(ix, iy+1, salt)
	v11 := f.node(ix+1, iy+1, salt)

	w00 := (1 - sx) * (1 - sy)
	w10 := sx * (1 - sy)
	w01 := (1 - sx) * sy
	w11 := sx * sy
	v := w00*v00 + w10*v10 + w01*v01 + w11*v11
	norm := math.Sqrt(w00*w00 + w10*w10 + w01*w01 + w11*w11)
	if norm == 0 {
		return 0
	}
	return v / norm
}

// node returns a deterministic unit Gaussian for a lattice node.
func (f *ShadowField) node(ix, iy int64, salt uint64) float64 {
	h := splitmix64(f.seed ^ salt ^ (uint64(ix) * 0x9E3779B97F4A7C15) ^ (uint64(iy) * 0xD1B54A32D192ED03))
	// Box–Muller from two uniforms derived from consecutive splitmix64 outputs.
	u1 := float64(splitmix64(h)>>11) / float64(1<<53)
	u2 := float64(splitmix64(h+1)>>11) / float64(1<<53)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
