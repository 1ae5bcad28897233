package rfenv

import (
	"math"
	"math/rand"
	"testing"

	"github.com/wsdetect/waldo/internal/dsp"
	"github.com/wsdetect/waldo/internal/geo"
)

func TestShadowFieldDeterministic(t *testing.T) {
	f := newShadowField(MetroCenter, shadowConfig{Seed: 7})
	p := MetroCenter.Offset(45, 3000)
	if f.AtPoint(p) != f.AtPoint(p) {
		t.Error("field must be a pure function of location")
	}
	g := newShadowField(MetroCenter, shadowConfig{Seed: 7})
	if f.AtPoint(p) != g.AtPoint(p) {
		t.Error("same seed must give the same field")
	}
	h := newShadowField(MetroCenter, shadowConfig{Seed: 8})
	if f.AtPoint(p) == h.AtPoint(p) {
		t.Error("different seeds should give different fields")
	}
}

func TestShadowFieldStatistics(t *testing.T) {
	const sigma = 6.0
	f := newShadowField(MetroCenter, shadowConfig{Seed: 42, SigmaDB: sigma})
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 4000)
	for i := range vals {
		p := MetroCenter.Offset(rng.Float64()*360, rng.Float64()*13000)
		vals[i] = f.AtPoint(p)
	}
	m := dsp.Mean(vals)
	s := dsp.StdDev(vals)
	if math.Abs(m) > 1.0 {
		t.Errorf("field mean = %v, want ≈0", m)
	}
	if s < sigma*0.6 || s > sigma*1.4 {
		t.Errorf("field stddev = %v, want ≈%v", s, sigma)
	}
}

// TestShadowFieldSpatialCorrelation checks the Gudmundson-style behaviour:
// nearby points are strongly correlated, distant points are not.
func TestShadowFieldSpatialCorrelation(t *testing.T) {
	f := newShadowField(MetroCenter, shadowConfig{Seed: 9, SigmaDB: 6})
	rng := rand.New(rand.NewSource(2))

	corrAt := func(sepM float64) float64 {
		a := make([]float64, 1500)
		b := make([]float64, 1500)
		for i := range a {
			p := MetroCenter.Offset(rng.Float64()*360, rng.Float64()*12000)
			q := p.Offset(rng.Float64()*360, sepM)
			a[i] = f.AtPoint(p)
			b[i] = f.AtPoint(q)
		}
		return dsp.Pearson(a, b)
	}

	near := corrAt(10)
	mid := corrAt(500)
	far := corrAt(20000)
	if near < 0.9 {
		t.Errorf("correlation at 10 m = %v, want > 0.9", near)
	}
	if mid >= near {
		t.Errorf("correlation must decay: near=%v mid=%v", near, mid)
	}
	if math.Abs(far) > 0.25 {
		t.Errorf("correlation at 20 km = %v, want ≈0", far)
	}
}

func TestObstructionProfile(t *testing.T) {
	o := Obstruction{Center: MetroCenter, RadiusM: 2000, EdgeM: 1000, DepthDB: 15}
	if got := o.AttenuationDB(30, MetroCenter); got != 15 {
		t.Errorf("core attenuation = %v, want 15", got)
	}
	if got := o.AttenuationDB(30, MetroCenter.Offset(0, 1999)); got != 15 {
		t.Errorf("inside radius = %v, want 15", got)
	}
	edge := o.AttenuationDB(30, MetroCenter.Offset(0, 2500))
	if edge <= 0 || edge >= 15 {
		t.Errorf("edge attenuation = %v, want in (0, 15)", edge)
	}
	if got := o.AttenuationDB(30, MetroCenter.Offset(0, 3100)); got != 0 {
		t.Errorf("outside = %v, want 0", got)
	}
	// Channel filter.
	filtered := Obstruction{Center: MetroCenter, RadiusM: 2000, DepthDB: 15, Channels: []Channel{17}}
	if filtered.AttenuationDB(30, MetroCenter) != 0 {
		t.Error("channel filter should exclude ch30")
	}
	if filtered.AttenuationDB(17, MetroCenter) != 15 {
		t.Error("channel filter should include ch17")
	}
}

func TestNewEnvironmentValidation(t *testing.T) {
	if _, err := newEnvironment(envConfig{}); err == nil {
		t.Error("degenerate area must be rejected")
	}
	bad := envConfig{
		Area:         geo.NewBBoxAround(MetroCenter, 10000),
		Transmitters: []Transmitter{{Callsign: "X", Channel: 7}},
	}
	if _, err := newEnvironment(bad); err == nil {
		t.Error("invalid channel must be rejected")
	}
}

func TestEnvironmentRSSBasics(t *testing.T) {
	env, err := BuildMetro(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(env.Channels()); got != 9 {
		t.Fatalf("channels = %d, want 9", got)
	}
	// No transmitter on channel 33.
	if v := env.RSSDBm(33, MetroCenter); !math.IsInf(v, -1) {
		t.Errorf("empty channel RSS = %v, want -inf", v)
	}
	// Channel 27 is the strong in-town station: decodable at center.
	if !(env.RSSDBm(27, MetroCenter) >= -84) {
		t.Errorf("ch27 at center = %v dBm, should be decodable", env.RSSDBm(27, MetroCenter))
	}
	// Signal decays away from the ch47 tower (northeast): compare a NE
	// point and a SW point.
	ne := MetroCenter.Offset(45, 10000)
	sw := MetroCenter.Offset(225, 10000)
	if env.RSSDBm(47, ne) <= env.RSSDBm(47, sw)-25 {
		t.Errorf("ch47 gradient inverted: NE=%v SW=%v", env.RSSDBm(47, ne), env.RSSDBm(47, sw))
	}
}

func TestMetroOccupancyStructure(t *testing.T) {
	env, err := BuildMetro(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	decodableFrac := func(ch Channel) float64 {
		const n = 800
		count := 0
		for i := 0; i < n; i++ {
			p := MetroCenter.Offset(rng.Float64()*360, rng.Float64()*13000)
			if env.RSSDBm(ch, p) >= -84 { // decodable (paper §2.1)
				count++
			}
		}
		return float64(count) / n
	}

	// The two fully occupied channels must be decodable essentially
	// everywhere; the deep-fringe channels mostly not.
	for _, ch := range []Channel{27, 39} {
		if f := decodableFrac(ch); f < 0.97 {
			t.Errorf("%v decodable fraction = %v, want ≈1 (fully occupied)", ch, f)
		}
	}
	for _, ch := range []Channel{17, 21} {
		if f := decodableFrac(ch); f > 0.45 {
			t.Errorf("%v decodable fraction = %v, want deep fringe (<0.45)", ch, f)
		}
	}
	// Channel 47 is mostly covered but not fully (boundary + pocket).
	if f := decodableFrac(47); f < 0.1 || f > 0.9 {
		t.Errorf("ch47 decodable fraction = %v, want partial coverage", f)
	}
}

func TestStrongestDBmSkips(t *testing.T) {
	env, err := BuildMetro(5)
	if err != nil {
		t.Fatal(err)
	}
	// The strongest signal at center is one of the in-town towers.
	s := env.StrongestDBm(MetroCenter, 15)
	if s < -70 {
		t.Errorf("strongest co-located power = %v, want strong (in-town towers)", s)
	}
	// Skipping a weak channel doesn't change the answer.
	if got := env.StrongestDBm(MetroCenter, 21); math.Abs(got-s) > 3 {
		t.Errorf("skip of weak channel changed strongest: %v vs %v", got, s)
	}
}

func TestERPForInverts(t *testing.T) {
	m := HataUrban{LargeCity: true}
	erp, err := ERPFor(m, 47, 50, 280, 2, -82)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := Channel(47).CenterFreqMHz()
	got := erp - m.PathLossDB(50000, f, 280, 2)
	if math.Abs(got-(-82)) > 1e-9 {
		t.Errorf("ERPFor round trip = %v, want -82", got)
	}
	if _, err := ERPFor(m, 7, 50, 280, 2, -82); err == nil {
		t.Error("invalid channel should error")
	}
}

func TestRSSDBmAtHeight(t *testing.T) {
	env, err := BuildMetro(1)
	if err != nil {
		t.Fatal(err)
	}
	p := MetroCenter.Offset(45, 5000)
	street := env.RSSDBmAtHeight(47, p, 2)
	tenth := env.RSSDBmAtHeight(47, p, 10)
	// Hata's mobile-antenna correction: higher receivers see more signal.
	gain := tenth - street
	want := MobileAntennaCorrectionDB(10) - MobileAntennaCorrectionDB(2)
	if math.Abs(gain-want) > 1e-9 {
		t.Errorf("height gain = %v, want %v", gain, want)
	}
	// The default-height query matches the explicit one.
	if env.RSSDBm(47, p) != env.RSSDBmAtHeight(47, p, env.RxHeightM) {
		t.Error("RSSDBm must equal RSSDBmAtHeight at the default height")
	}
}

func TestBlendedShadowField(t *testing.T) {
	base := newShadowField(MetroCenter, shadowConfig{Seed: 1, SigmaDB: 6})
	fresh := newShadowField(MetroCenter, shadowConfig{Seed: 2, SigmaDB: 6})
	if _, err := NewBlendedShadowField(nil, fresh, 0.5); err == nil {
		t.Error("nil base must fail")
	}
	if _, err := NewBlendedShadowField(base, fresh, 1.5); err == nil {
		t.Error("rho > 1 must fail")
	}

	exact, err := NewBlendedShadowField(base, fresh, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := MetroCenter.Offset(30, 4000)
	if exact.AtPoint(p) != base.AtPoint(p) {
		t.Error("rho=1 must reproduce the base field")
	}

	// Statistical properties of a partial blend: variance preserved,
	// correlation with the base ≈ rho.
	blend, err := NewBlendedShadowField(base, fresh, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var bs, vs []float64
	for i := 0; i < 3000; i++ {
		q := MetroCenter.Offset(rng.Float64()*360, rng.Float64()*12000)
		bs = append(bs, base.AtPoint(q))
		vs = append(vs, blend.AtPoint(q))
	}
	if r := dsp.Pearson(bs, vs); r < 0.8 || r > 0.97 {
		t.Errorf("blend correlation = %v, want ≈0.9", r)
	}
	sdBase, sdBlend := dsp.StdDev(bs), dsp.StdDev(vs)
	if math.Abs(sdBlend-sdBase) > 0.15*sdBase {
		t.Errorf("blend stddev %v vs base %v: variance not preserved", sdBlend, sdBase)
	}
}

func TestTemporalVariant(t *testing.T) {
	env, err := BuildMetro(1)
	if err != nil {
		t.Fatal(err)
	}
	later, err := env.TemporalVariant(99, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.TemporalVariant(99, 2); err == nil {
		t.Error("bad rho must fail")
	}

	// Same incumbents and channels.
	if len(later.Channels()) != len(env.Channels()) {
		t.Fatal("variant lost channels")
	}
	// Fields correlated but not identical; the variant stays plausible.
	rng := rand.New(rand.NewSource(4))
	var now, then []float64
	identical := true
	for i := 0; i < 1000; i++ {
		p := MetroCenter.Offset(rng.Float64()*360, rng.Float64()*12000)
		a := env.RSSDBm(47, p)
		b := later.RSSDBm(47, p)
		now = append(now, a)
		then = append(then, b)
		if a != b {
			identical = false
		}
	}
	if identical {
		t.Error("variant field is identical to the base")
	}
	if r := dsp.Pearson(now, then); r < 0.9 {
		t.Errorf("field correlation across time = %v, want high at rho=0.9", r)
	}
}
