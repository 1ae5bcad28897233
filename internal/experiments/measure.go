package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dsp"
	"github.com/wsdetect/waldo/internal/ml/validate"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// AntennaCorrectionDB is the paper's §2.1 uniform correction (≈7.5 dB, the
// Hata a(h_m) for the 8 m antenna-height gap).
func AntennaCorrectionDB() float64 { return rfenv.AntennaHeightGapCorrectionDB() }

// labelMetrics compares predicted labels to truth labels.
func labelMetrics(pred, truth []dataset.Label) (validate.Metrics, error) {
	var m validate.Metrics
	if len(pred) != len(truth) {
		return m, fmt.Errorf("experiments: %d predictions vs %d truths", len(pred), len(truth))
	}
	for i := range pred {
		m.Count(labelClass(pred[i]), labelClass(truth[i]))
	}
	return m, nil
}

// --- §2.2: safety and efficiency of low-cost sensors ---

// SensorAccuracyRow is one channel's low-cost-sensor accuracy vs the
// analyzer ground truth.
type SensorAccuracyRow struct {
	Channel rfenv.Channel
	Kind    sensor.Kind
	// Misdetection is the FN rate (white space dismissed — efficiency).
	Misdetection float64
	// FalseAlarm is the FP rate (occupied declared vacant — safety).
	FalseAlarm float64
}

// Sec22Result reproduces the §2.2 numbers: RTL-SDR 39.8 % misdetection /
// 0.8 % false alarm; USRP 20.9 % / 5.2 %.
type Sec22Result struct {
	Rows []SensorAccuracyRow
	// Overall rates per sensor, aggregated over all nine channels.
	Overall map[sensor.Kind]validate.Metrics
}

// Sec22SafetyEfficiency labels each low-cost sensor's readings with
// Algorithm 1 and scores them against the analyzer's labels.
func (s *Suite) Sec22SafetyEfficiency() (*Sec22Result, error) {
	camp, err := s.Campaign()
	if err != nil {
		return nil, err
	}
	res := &Sec22Result{Overall: map[sensor.Kind]validate.Metrics{}}
	for _, kind := range []sensor.Kind{sensor.KindRTLSDR, sensor.KindUSRPB200} {
		var overall validate.Metrics
		for _, ch := range camp.Channels {
			truth, err := s.GroundTruth(ch, 0)
			if err != nil {
				return nil, err
			}
			pred, err := s.Labels(ch, kind, 0)
			if err != nil {
				return nil, err
			}
			m, err := labelMetrics(pred, truth)
			if err != nil {
				return nil, err
			}
			overall.Add(m)
			res.Rows = append(res.Rows, SensorAccuracyRow{
				Channel:      ch,
				Kind:         kind,
				Misdetection: m.FNRate(),
				FalseAlarm:   m.FPRate(),
			})
		}
		res.Overall[kind] = overall
	}
	return res, nil
}

// Render implements the experiment report.
func (r *Sec22Result) Render() string {
	var b strings.Builder
	b.WriteString("§2.2 Low-cost sensor safety/efficiency vs spectrum analyzer\n")
	b.WriteString("(paper: RTL misdetection 39.8%, false alarm 0.8%; USRP 20.9%, 5.2%)\n")
	fmt.Fprintf(&b, "%-9s %-12s %12s %12s\n", "channel", "sensor", "misdetect", "false-alarm")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9v %-12v %11.1f%% %11.1f%%\n",
			row.Channel, row.Kind, row.Misdetection*100, row.FalseAlarm*100)
	}
	for _, kind := range []sensor.Kind{sensor.KindRTLSDR, sensor.KindUSRPB200} {
		m := r.Overall[kind]
		fmt.Fprintf(&b, "OVERALL   %-12v %11.1f%% %11.1f%%\n", kind, m.FNRate()*100, m.FPRate()*100)
	}
	return b.String()
}

// --- Fig. 4: spectrum database false negatives ---

// Fig4Row is one channel's database FN rate.
type Fig4Row struct {
	Channel rfenv.Channel
	// FNPlain is the database miss rate against ground truth at the
	// measurement height.
	FNPlain float64
	// FNCorrected is the same with the +7.5 dB antenna correction
	// applied to the ground-truth labeling (Fig. 4b).
	FNCorrected float64
	// FPPlain is the database false-vacancy rate (the ~2 % the paper
	// reports in §4.4).
	FPPlain float64
}

// Fig4Result reproduces Fig. 4: the over-protection of a conventional
// propagation-model spectrum database.
type Fig4Result struct {
	Rows []Fig4Row
	// MeanFNPlain and MeanFNCorrected average over channels.
	MeanFNPlain     float64
	MeanFNCorrected float64
	MeanFPPlain     float64
}

// Fig4 queries the generic-model database at every reading location and
// scores it against the analyzer ground truth.
func (s *Suite) Fig4() (*Fig4Result, error) {
	camp, err := s.Campaign()
	if err != nil {
		return nil, err
	}
	env, err := s.Env()
	if err != nil {
		return nil, err
	}
	db, err := newDefaultSpecDB(env)
	if err != nil {
		return nil, err
	}
	corr := AntennaCorrectionDB()

	res := &Fig4Result{}
	var sumPlain, sumCorr, sumFP float64
	for _, ch := range camp.Channels {
		readings := camp.Readings(ch, sensor.KindSpectrumAnalyzer)
		pred := make([]dataset.Label, len(readings))
		for i := range readings {
			if db.Available(ch, readings[i].Loc) {
				pred[i] = dataset.LabelSafe
			} else {
				pred[i] = dataset.LabelNotSafe
			}
		}
		truth, err := s.GroundTruth(ch, 0)
		if err != nil {
			return nil, err
		}
		mPlain, err := labelMetrics(pred, truth)
		if err != nil {
			return nil, err
		}
		truthCorr, err := s.GroundTruth(ch, corr)
		if err != nil {
			return nil, err
		}
		mCorr, err := labelMetrics(pred, truthCorr)
		if err != nil {
			return nil, err
		}
		row := Fig4Row{
			Channel:     ch,
			FNPlain:     mPlain.FNRate(),
			FNCorrected: mCorr.FNRate(),
			FPPlain:     mPlain.FPRate(),
		}
		res.Rows = append(res.Rows, row)
		sumPlain += row.FNPlain
		sumCorr += row.FNCorrected
		sumFP += row.FPPlain
	}
	n := float64(len(res.Rows))
	res.MeanFNPlain = sumPlain / n
	res.MeanFNCorrected = sumCorr / n
	res.MeanFPPlain = sumFP / n
	return res, nil
}

// Render implements the experiment report.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 4: spectrum database FN rate vs analyzer-measured white space\n")
	fmt.Fprintf(&b, "%-9s %14s %18s %12s\n", "channel", "FN (ground)", "FN (ant. corr.)", "FP (ground)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9v %13.3f %17.3f %11.3f\n", row.Channel, row.FNPlain, row.FNCorrected, row.FPPlain)
	}
	fmt.Fprintf(&b, "MEAN      %13.3f %17.3f %11.3f\n", r.MeanFNPlain, r.MeanFNCorrected, r.MeanFPPlain)
	return b.String()
}

// --- Fig. 5: sensor sensitivity CDFs ---

// Fig5Level is the reading distribution for one wired input level.
type Fig5Level struct {
	// InputDBm is the signal-generator level; NaN marks the no-signal
	// run.
	InputDBm float64
	// Readings is the empirical CDF of raw readings.
	Readings *dsp.ECDF
	// KSFromNoSignal is the Kolmogorov–Smirnov distance to the
	// no-signal distribution: ≈0 means the level is indistinguishable
	// from the floor.
	KSFromNoSignal float64
}

// Fig5Sensor is one device's sensitivity sweep.
type Fig5Sensor struct {
	Kind   sensor.Kind
	Levels []Fig5Level
	// DetectableFloorDBm is the lowest swept level still clearly
	// distinguishable (KS ≥ 0.5) from no-signal.
	DetectableFloorDBm float64
}

// Fig5Result reproduces the calibration sweep of Fig. 5.
type Fig5Result struct {
	Sensors []Fig5Sensor
}

// Fig5SensorSensitivity sweeps a signal generator into each sensor and
// records reading CDFs (paper levels: USRP −50…−103; RTL −70…−98; both
// with a terminated no-signal run).
func (s *Suite) Fig5SensorSensitivity() (*Fig5Result, error) {
	const perLevel = 600
	sweeps := map[sensor.Kind][]float64{
		sensor.KindUSRPB200: {-50, -80, -94, -100, -103, -106},
		sensor.KindRTLSDR:   {-70, -80, -90, -94, -96, -98, -101},
	}
	rng := rand.New(rand.NewSource(s.cfg.Seed + 50))
	res := &Fig5Result{}
	for _, kind := range []sensor.Kind{sensor.KindUSRPB200, sensor.KindRTLSDR} {
		spec, err := sensor.SpecFor(kind)
		if err != nil {
			return nil, err
		}
		dev := sensor.NewDevice(spec)
		collect := func(level float64) (*dsp.ECDF, error) {
			vals := make([]float64, perLevel)
			for i := range vals {
				obs, err := dev.ObserveWired(rng, level)
				if err != nil {
					return nil, err
				}
				vals[i] = obs.RawDB
			}
			return dsp.NewECDF(vals), nil
		}
		noSignal, err := collect(math.Inf(-1))
		if err != nil {
			return nil, err
		}
		fs := Fig5Sensor{Kind: kind, DetectableFloorDBm: math.Inf(1)}
		for _, level := range sweeps[kind] {
			ecdf, err := collect(level)
			if err != nil {
				return nil, err
			}
			ks := ecdf.KolmogorovSmirnov(noSignal)
			fs.Levels = append(fs.Levels, Fig5Level{InputDBm: level, Readings: ecdf, KSFromNoSignal: ks})
			if ks >= 0.5 && level < fs.DetectableFloorDBm {
				fs.DetectableFloorDBm = level
			}
		}
		fs.Levels = append(fs.Levels, Fig5Level{InputDBm: math.NaN(), Readings: noSignal, KSFromNoSignal: 0})
		res.Sensors = append(res.Sensors, fs)
	}
	return res, nil
}

// Render implements the experiment report.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 5: CDFs of raw readings for calibrated generator levels\n")
	b.WriteString("(paper: RTL-SDR detects down to ≈−98 dBm, USRP to ≈−103 dBm)\n")
	for _, fs := range r.Sensors {
		fmt.Fprintf(&b, "%v (detectable floor ≈ %.0f dBm):\n", fs.Kind, fs.DetectableFloorDBm)
		for _, lv := range fs.Levels {
			name := "no-signal"
			if !math.IsNaN(lv.InputDBm) {
				name = fmt.Sprintf("%.0f dBm", lv.InputDBm)
			}
			fmt.Fprintf(&b, "  %-10s median=%8.2f dB  p10=%8.2f  p90=%8.2f  KS(no-sig)=%.2f\n",
				name, lv.Readings.Quantile(0.5), lv.Readings.Quantile(0.1),
				lv.Readings.Quantile(0.9), lv.KSFromNoSignal)
		}
	}
	return b.String()
}
