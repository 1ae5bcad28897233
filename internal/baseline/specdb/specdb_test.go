package specdb

import (
	"testing"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/rfenv"
)

func metroDB(t *testing.T) (*Database, *rfenv.Environment) {
	t.Helper()
	env, err := rfenv.BuildMetro(1)
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(Config{Transmitters: env.Transmitters()})
	if err != nil {
		t.Fatal(err)
	}
	return db, env
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty registry must fail")
	}
}

func TestChannels(t *testing.T) {
	db, env := metroDB(t)
	if got, want := len(db.Channels()), len(env.Channels()); got != want {
		t.Errorf("channels = %d, want %d", got, want)
	}
	chs := db.Channels()
	for i := 1; i < len(chs); i++ {
		if chs[i] < chs[i-1] {
			t.Error("channels not sorted")
		}
	}
}

func TestContourMonotoneInPower(t *testing.T) {
	weak := rfenv.Transmitter{Callsign: "W", Loc: rfenv.MetroCenter, Channel: 30, ERPdBm: 60, HeightM: 300}
	strong := weak
	strong.ERPdBm = 90
	db, err := New(Config{Transmitters: []rfenv.Transmitter{weak, strong}})
	if err != nil {
		t.Fatal(err)
	}
	if rw, rs := db.radii[30][0].radiusM, db.radii[30][1].radiusM; rs <= rw {
		t.Errorf("stronger station should have larger contour: %v vs %v", rs, rw)
	}
}

func TestAvailabilityGeometry(t *testing.T) {
	tx := rfenv.Transmitter{Callsign: "X", Loc: rfenv.MetroCenter, Channel: 47, ERPdBm: 80, HeightM: 300}
	db, err := New(Config{Transmitters: []rfenv.Transmitter{tx}})
	if err != nil {
		t.Fatal(err)
	}
	r := db.radii[47][0].radiusM
	// Inside the contour: denied. Just beyond contour+6 km: allowed.
	if db.Available(47, rfenv.MetroCenter.Offset(0, r/2)) {
		t.Error("inside contour should be denied")
	}
	if db.Available(47, rfenv.MetroCenter.Offset(0, r+5000)) {
		t.Error("inside the 6 km buffer should be denied")
	}
	if !db.Available(47, rfenv.MetroCenter.Offset(0, r+7000)) {
		t.Error("outside contour+6 km should be allowed")
	}
	// Other channels are unaffected.
	if !db.Available(30, rfenv.MetroCenter) {
		t.Error("channel without incumbents should be available")
	}
}

// TestDatabaseOverprotectsPockets is the Fig. 1 / Fig. 4 mechanism: inside
// an obstruction pocket the true signal is undecodable, but the database —
// blind to terrain — still denies the channel.
func TestDatabaseOverprotectsPockets(t *testing.T) {
	db, env := metroDB(t)
	// The metro has a channel-47 pocket obstruction 5 km NE of center.
	pocket := rfenv.MetroCenter.Offset(45, 5000)
	if env.RSSDBm(47, pocket) >= core.ThresholdDBm {
		t.Skip("pocket is decodable under this seed; geometry changed")
	}
	if db.Available(47, pocket) {
		t.Error("generic database should deny the pocket (over-protection)")
	}
}

// TestOverprotectionFactor: the area the database denies around a
// channel-47 station, its contour plus the portable separation, is more
// than the area of a 10 km reference radius — the paper's "up to 2×
// actual coverage" observation.
func TestOverprotectionFactor(t *testing.T) {
	db, _ := metroDB(t)
	denied := db.radii[47][0].radiusM + core.ProtectRadiusM
	if f := denied * denied / (10000 * 10000); f <= 1 {
		t.Errorf("overprotection factor = %v, want > 1 for a conservative model", f)
	}
}
