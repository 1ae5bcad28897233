package main

import (
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dsp"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/ml"
	"github.com/wsdetect/waldo/internal/ml/bayes"
	"github.com/wsdetect/waldo/internal/ml/kmeans"
	"github.com/wsdetect/waldo/internal/ml/svm"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/wardrive"
)

// Traced runs of the two in-process workloads: spans around the public
// functions of dsp, features, core (device side), ml and dataset, on the
// inputs the timed run used.

const deviceTraceCalls = 2000

// traceScan times one capture's journey: spectrum, features, detector,
// classifier.
func traceScan(rig *scanRig, res *result) error {
	tr := newTracer()
	m := res.Metrics
	radio := rig.radio
	nCh := len(rig.camp.Channels)
	capture := func(i int) sensor.Observation {
		ring := radio.obs[i%len(radio.obs)][(i/len(radio.obs))%nCh]
		return ring[i%len(ring)]
	}

	ps := make([]float64, len(capture(0).IQ))
	if err := tr.timed("dsp.power_spectrum", deviceTraceCalls, 1, func(i int) error {
		return dsp.PowerSpectrumInto(ps, capture(i).IQ)
	}); err != nil {
		return err
	}
	sigs := make([]features.Signal, deviceTraceCalls)
	if err := tr.timed("features.from_observation", deviceTraceCalls, 1, func(i int) (err error) {
		sigs[i], err = features.FromObservation(capture(i), radio.cal)
		return err
	}); err != nil {
		return err
	}

	// Detector and classifier on the last channel's model (mixed labels
	// in the metro), at the first scan location.
	ch := rig.camp.Channels[nCh-1]
	model, loc := rig.wsd.Models[ch], rig.locs[0]
	ring := radio.obs[0][nCh-1]
	chSigs := make([]features.Signal, len(ring))
	for i, o := range ring {
		var err error
		if chSigs[i], err = features.FromObservation(o, radio.cal); err != nil {
			return err
		}
	}
	det, err := core.NewDetector(model, rig.wsd.Detector)
	if err != nil {
		return err
	}
	// One span per full stream: Reset, then every capture offered.
	if err := tr.timed("core.detector_offer", deviceTraceCalls/len(chSigs), 1, func(int) error {
		det.Reset()
		for _, s := range chSigs {
			det.Offer(s)
		}
		return nil
	}); err != nil {
		return err
	}
	var dec core.Decision
	if err := tr.timed("core.detector_decide", deviceTraceCalls, 1, func(int) (err error) {
		dec, err = det.Decide(loc)
		return err
	}); err != nil {
		return err
	}
	if err := tr.timed("core.classify", deviceTraceCalls, 1, func(int) error {
		_, err := model.Classify(loc, dec.Signal)
		return err
	}); err != nil {
		return err
	}

	tr.on = false
	allocs, err := allocsPerOp(deviceTraceCalls, func(i int) error {
		_, err := features.FromObservation(capture(i), radio.cal)
		return err
	})
	if err != nil {
		return err
	}
	m.set("features.from_observation_allocs", allocs)
	if err := scanOverhead(rig, m); err != nil {
		return err
	}

	total, _ := tr.durations()
	putSpanMedian(m, "dsp.power_spectrum_us", total, "dsp.power_spectrum", 1e3)
	putSpanMedian(m, "features.from_observation_us", total, "features.from_observation", 1e3)
	putSpanMedian(m, "core.detector_offer_ns", total, "core.detector_offer", float64(len(chSigs)))
	putSpanMedian(m, "core.detector_decide_us", total, "core.detector_decide", 1e3)
	putSpanMedian(m, "core.classify_us", total, "core.classify", 1e3)
	res.spans = tr.spans
	return nil
}

// scanOverhead compares the same scans with a span around each against
// none: the cost tracing would add to the timed run.
func scanOverhead(rig *scanRig, m metricSet) error {
	tr := newTracer()
	var tally scanTally
	run := func() (float64, error) {
		var sum float64
		for i := 0; i < deviceTraceCalls/4; i++ {
			id := tr.begin("client.scan", 0, i)
			d, err := rig.scan(i%len(rig.locs), &tally)
			tr.end(id)
			if err != nil {
				return 0, err
			}
			sum += float64(d)
		}
		return sum, nil
	}
	tr.on = false
	off, err := run()
	if err != nil {
		return err
	}
	tr.on = true
	on, err := run()
	if err != nil {
		return err
	}
	m.set("bench.trace_overhead_share", ratio(on-off, off))
	return nil
}

const trainTraceCalls = 5

// traceTrain times the constructor's parts on the mixed-label channel
// at campaign scale: Algorithm 1, k-means, the per-locality fits, and
// the whole build for both classifier families.
func traceTrain(camp *wardrive.Campaign, seed int64, res *result) error {
	tr := newTracer()
	m := res.Metrics
	ch := camp.Channels[len(camp.Channels)-1]
	rs := camp.Readings(ch, rtl)

	var labels []dataset.Label
	if err := tr.timed("dataset.label", trainTraceCalls, 1, func(int) (err error) {
		labels, err = dataset.LabelReadings(rs, dataset.LabelConfig{})
		return err
	}); err != nil {
		return err
	}

	// The inputs BuildModel derives: locations in km for k-means, and
	// standardized feature vectors with ±1 classes for the fits.
	proj := geo.NewProjector(rs[0].Loc)
	locs := make([][]float64, len(rs))
	x := make([][]float64, len(rs))
	y := make([]int, len(rs))
	for i := range rs {
		xy := proj.ToXY(rs[i].Loc)
		locs[i] = []float64{xy.X / 1000, xy.Y / 1000}
		vec, err := features.SetLocationRSSCFT.Vector(xy, rs[i].Signal)
		if err != nil {
			return err
		}
		x[i] = vec
		y[i] = ml.Negative
		if labels[i] == dataset.LabelSafe {
			y[i] = ml.Positive
		}
	}
	std, err := ml.FitStandardizer(x)
	if err != nil {
		return err
	}
	z, err := std.TransformAll(x)
	if err != nil {
		return err
	}

	if err := tr.timed("ml.kmeans", trainTraceCalls, 1, func(int) error {
		_, err := kmeans.Run(locs, kmeans.Config{K: 3, Seed: seed})
		return err
	}); err != nil {
		return err
	}
	// The SVM the constructor builds for KindSVM.
	clf := &svm.RFFSVM{Seed: seed, D: 48, Gamma: 0.35, Linear: svm.Pegasos{ClassBalance: true}}
	if err := tr.timed("ml.svm_fit", trainTraceCalls, 1, func(int) error { return clf.Fit(z, y) }); err != nil {
		return err
	}
	if err := tr.timed("ml.svm_predict", 50, 100, func(i int) error {
		_, err := clf.Predict(z[i%len(z)])
		return err
	}); err != nil {
		return err
	}
	if err := tr.timed("ml.nb_fit", trainTraceCalls, 1, func(int) error { return (&bayes.GaussianNB{}).Fit(z, y) }); err != nil {
		return err
	}
	for kind, span := range map[core.ClassifierKind]string{core.KindSVM: "core.build_model_svm", core.KindNB: "core.build_model_nb"} {
		cfg := constructorConfig(kind)
		if err := tr.timed(span, trainTraceCalls, 1, func(int) error {
			_, err := core.BuildModel(rs, labels, cfg)
			return err
		}); err != nil {
			return err
		}
	}
	tr.on = false
	cfg := constructorConfig(core.KindSVM)
	cfg.Workers = 1 // mallocs are counted on this goroutine only
	allocs, err := allocsPerOp(trainTraceCalls, func(int) error {
		_, err := core.BuildModel(rs, labels, cfg)
		return err
	})
	if err != nil {
		return err
	}
	m.set("core.build_model_allocs", allocs)

	// Tracing overhead on this workload: the same build with the tracer
	// off and on, alternating.
	cfg = constructorConfig(core.KindSVM)
	var off, on []float64
	for i := 0; i < 2*trainTraceCalls; i++ {
		tr.on = i%2 == 1
		start := time.Now()
		if err := tr.timed("bench.overhead_probe", 1, 1, func(int) error {
			_, err := core.BuildModel(rs, labels, cfg)
			return err
		}); err != nil {
			return err
		}
		if d := float64(time.Since(start)); tr.on {
			on = append(on, d)
		} else {
			off = append(off, d)
		}
	}
	m.set("bench.trace_overhead_share", ratio(median(on)-median(off), median(off)))
	total, _ := tr.durations()
	putSpanMedian(m, "dataset.label_ms", total, "dataset.label", 1e6)
	putSpanMedian(m, "ml.kmeans_ms", total, "ml.kmeans", 1e6)
	putSpanMedian(m, "ml.svm_fit_ms", total, "ml.svm_fit", 1e6)
	putSpanMedian(m, "ml.svm_predict_ns", total, "ml.svm_predict", 100)
	putSpanMedian(m, "ml.nb_fit_ms", total, "ml.nb_fit", 1e6)
	putSpanMedian(m, "core.build_model_svm_ms", total, "core.build_model_svm", 1e6)
	putSpanMedian(m, "core.build_model_nb_ms", total, "core.build_model_nb", 1e6)
	res.spans = tr.spans
	return nil
}
