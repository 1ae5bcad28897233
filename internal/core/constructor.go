package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/ml"
	"github.com/wsdetect/waldo/internal/ml/bayes"
	"github.com/wsdetect/waldo/internal/ml/kmeans"
	"github.com/wsdetect/waldo/internal/ml/svm"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// ConstructorConfig parameterizes the Model Constructor (§3.2).
type ConstructorConfig struct {
	// ClusterK is the number of localities; 1 disables clustering.
	// Default 1 (the paper's best FP/overhead balance for 700 km² is 3).
	ClusterK int
	// Classifier selects the per-locality model family; default KindSVM.
	Classifier ClassifierKind
	// Features selects the classifier inputs; default
	// SetLocationRSSCFT, the "location + two signal features"
	// configuration of Table 1 / Fig. 16.
	Features features.Set
	// SafetyMargin biases classification toward NotSafe: a point is
	// declared Safe only when the classifier's decision value exceeds
	// this margin. Zero reproduces the paper; §2.1 notes that
	// "the conservativeness of this approach can be controlled", and
	// this is the control (trades FN for FP). Negative margins are
	// rejected — never bias toward endangering incumbents.
	SafetyMargin float64
	// Seed drives clustering and SVM randomization.
	Seed int64
	// Workers caps the construction worker pool: the k-means scans and
	// the per-locality training fan-out (each locality trains with an
	// independent salt, so the result is bit-identical to a serial
	// build). 0 means runtime.GOMAXPROCS, 1 forces serial; negative is
	// rejected.
	Workers int
}

func (c *ConstructorConfig) defaults() error {
	if c.ClusterK == 0 {
		c.ClusterK = 1
	}
	if c.ClusterK < 0 {
		return fmt.Errorf("core: negative cluster count %d", c.ClusterK)
	}
	if c.Classifier == 0 {
		c.Classifier = KindSVM
	}
	if !c.Classifier.Valid() {
		return fmt.Errorf("core: invalid classifier kind %d", int(c.Classifier))
	}
	if c.Features == 0 {
		c.Features = features.SetLocationRSSCFT
	}
	if !c.Features.Valid() {
		return fmt.Errorf("core: invalid feature set %d", int(c.Features))
	}
	if c.SafetyMargin < 0 {
		return fmt.Errorf("core: negative safety margin %v", c.SafetyMargin)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", c.Workers)
	}
	return nil
}

// workerCount resolves the Workers knob against the host.
func (c *ConstructorConfig) workerCount() int {
	if c.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// localModel is one locality's trained classifier.
type localModel struct {
	// constant marks all-safe or all-not-safe localities: the "binary"
	// clusters of §3.2 that need no classifier at all.
	constant      bool
	constantLabel dataset.Label
	std           *ml.Standardizer
	clf           ml.Classifier
}

// Model is the downloadable White Space Detection Model for one channel as
// seen by one sensor type.
type Model struct {
	// Channel is the TV channel the model covers.
	Channel rfenv.Channel
	// Sensor is the device family the training readings came from.
	Sensor sensor.Kind
	// Features is the classifier input set.
	Features features.Set
	// Kind is the classifier family.
	Kind ClassifierKind
	// Origin anchors the location-feature projection.
	Origin geo.Point

	centers [][]float64 // locality centers in location-feature space (km)
	locals  []localModel
	margin  float64
	proj    *geo.Projector
}

// newClassifier builds an untrained classifier for the configured family.
func newClassifier(kind ClassifierKind, seed int64) (ml.Classifier, error) {
	switch kind {
	case KindSVM:
		// The descriptor-compactness requirement of §3.2 (WSDs download
		// the model) bounds the feature budget: D=48 random Fourier
		// features keeps SVM descriptors in the tens of kilobytes and,
		// as in the paper, limits how much pure spatial structure the
		// model can memorize — signal features carry the rest.
		return &svm.RFFSVM{Seed: seed, D: 48, Gamma: 0.35, Linear: svm.Pegasos{ClassBalance: true}}, nil
	case KindNB:
		return &bayes.GaussianNB{}, nil
	case KindSVMExact:
		return &svm.SMO{Kernel: svm.RBF{Gamma: 0.5}, Seed: seed}, nil
	case KindLinearSVM:
		return &svm.Pegasos{Seed: seed, ClassBalance: true}, nil
	default:
		return nil, fmt.Errorf("core: invalid classifier kind %d", int(kind))
	}
}

// BuildModel trains a White Space Detection Model from labeled readings of
// one channel/sensor. readings and labels must be parallel; all readings
// must share the same channel and sensor.
func BuildModel(readings []dataset.Reading, labels []dataset.Label, cfg ConstructorConfig) (*Model, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if len(readings) == 0 {
		return nil, fmt.Errorf("core: no readings")
	}
	if len(readings) != len(labels) {
		return nil, fmt.Errorf("core: %d readings but %d labels", len(readings), len(labels))
	}
	ch, kind := readings[0].Channel, readings[0].Sensor
	for i := range readings {
		if readings[i].Channel != ch || readings[i].Sensor != kind {
			return nil, fmt.Errorf("core: reading %d is %v/%v, model is %v/%v",
				i, readings[i].Channel, readings[i].Sensor, ch, kind)
		}
		if !readings[i].Loc.Valid() {
			return nil, fmt.Errorf("core: reading %d has invalid location %v", i, readings[i].Loc)
		}
	}
	if cfg.ClusterK > len(readings) {
		return nil, fmt.Errorf("core: %d clusters for %d readings", cfg.ClusterK, len(readings))
	}

	origin := readings[0].Loc
	proj := geo.NewProjector(origin)
	centers, assignments, err := identifyLocalities(readings, proj, cfg)
	if err != nil {
		return nil, err
	}

	model := &Model{
		Channel:  ch,
		Sensor:   kind,
		Features: cfg.Features,
		Kind:     cfg.Classifier,
		Origin:   origin,
		centers:  centers,
		locals:   make([]localModel, cfg.ClusterK),
		margin:   cfg.SafetyMargin,
		proj:     proj,
	}

	// Group member indices per locality (in reading order), then fan the
	// per-locality feature extraction and training out across workers.
	// Each locality's training depends only on its own members and a
	// salt derived from its index, so the built model is bit-identical
	// to a serial build regardless of worker count.
	members := groupByLocality(assignments, cfg.ClusterK)
	buildLocal := func(c int) (localModel, error) {
		idxs := members[c]
		x := ml.NewMatrix(len(idxs), cfg.Features.Dim())
		y := make([]int, len(idxs))
		for k, i := range idxs {
			if _, err := cfg.Features.AppendVector(x[k][:0], proj.ToXY(readings[i].Loc), readings[i].Signal); err != nil {
				return localModel{}, fmt.Errorf("core: feature vector: %w", err)
			}
			cls, err := labelToClass(labels[i])
			if err != nil {
				return localModel{}, err
			}
			y[k] = cls
		}
		lm, err := trainLocal(x, y, cfg, int64(c))
		if err != nil {
			return localModel{}, fmt.Errorf("core: locality %d: %w", c, err)
		}
		return lm, nil
	}

	workers := cfg.workerCount()
	if workers > cfg.ClusterK {
		workers = cfg.ClusterK
	}
	errs := make([]error, cfg.ClusterK)
	if workers <= 1 {
		for c := 0; c < cfg.ClusterK; c++ {
			model.locals[c], errs[c] = buildLocal(c)
		}
	} else {
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					c := int(next.Add(1))
					if c >= cfg.ClusterK {
						return
					}
					model.locals[c], errs[c] = buildLocal(c)
				}
			}()
		}
		wg.Wait()
	}
	// Report the lowest-index failure so error messages do not depend on
	// goroutine scheduling.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return model, nil
}

// lastLocalities is identifyLocalities' last clustering, one immutable
// entry replaced whole (tests Store(nil)): a campaign measures every
// channel at every point, so one rebuild's channels cluster one set.
var lastLocalities atomic.Pointer[localitiesEntry]

// localitiesEntry is one clustering under its key: K, Seed (Workers never
// changes kmeans.Run's output) and a copy of the readings' locations.
type localitiesEntry struct {
	key         kmeans.Config
	locs        []geo.Point
	centers     [][]float64
	assignments []int
}

// matches compares the key bit for bit, so −0/+0 and NaNs cannot alias.
func (e *localitiesEntry) matches(readings []dataset.Reading, key kmeans.Config) bool {
	if e == nil || e.key != key || len(e.locs) != len(readings) {
		return false
	}
	for i, p := range e.locs {
		if q := readings[i].Loc; math.Float64bits(p.Lat) != math.Float64bits(q.Lat) || math.Float64bits(p.Lon) != math.Float64bits(q.Lon) {
			return false
		}
	}
	return true
}

// identifyLocalities clusters the readings on location alone, in km from
// proj's origin, readings[0].Loc. It returns the caller's own copy of the
// k centers and each reading's locality, shared and never to be written.
func identifyLocalities(readings []dataset.Reading, proj *geo.Projector, cfg ConstructorConfig) ([][]float64, []int, error) {
	key := kmeans.Config{K: cfg.ClusterK, Seed: cfg.Seed}
	e := lastLocalities.Load()
	if !e.matches(readings, key) {
		keyLocs := make([]geo.Point, len(readings))
		locs := ml.NewMatrix(len(readings), 2)
		for i := range readings {
			keyLocs[i] = readings[i].Loc
			xy := proj.ToXY(keyLocs[i])
			locs[i][0], locs[i][1] = xy.X/1000, xy.Y/1000
		}
		clu, err := kmeans.Run(locs, kmeans.Config{K: key.K, Seed: key.Seed, Workers: cfg.Workers})
		if err != nil {
			return nil, nil, fmt.Errorf("core: localities identification: %w", err)
		}
		e = &localitiesEntry{key: key, locs: keyLocs, centers: clu.Centers, assignments: clu.Assignments}
		lastLocalities.Store(e)
	}
	centers := ml.NewMatrix(len(e.centers), 2)
	for c := range centers {
		copy(centers[c], e.centers[c])
	}
	return centers, e.assignments, nil
}

// groupByLocality lists, for each of k localities, the indices assigned
// to it in ascending order. The lists are consecutive ranges of one
// array, sized by a counting pass.
func groupByLocality(assignments []int, k int) [][]int {
	counts := make([]int, k)
	for _, c := range assignments {
		counts[c]++
	}
	backing := make([]int, len(assignments))
	members := make([][]int, k)
	for c, n := range counts {
		members[c] = backing[:0:n]
		backing = backing[n:]
	}
	for i, c := range assignments {
		members[c] = append(members[c], i)
	}
	return members
}

// trainLocal fits one locality. Single-class localities become constant
// ("binary") models.
func trainLocal(x [][]float64, y []int, cfg ConstructorConfig, salt int64) (localModel, error) {
	if len(x) == 0 {
		// An empty locality can only arise from k-means re-seeding
		// pathologies; be conservative.
		return localModel{constant: true, constantLabel: dataset.LabelNotSafe}, nil
	}
	first, constant := y[0], true
	for _, v := range y[1:] {
		if v != first {
			constant = false
			break
		}
	}
	if constant {
		return localModel{constant: true, constantLabel: classToLabel(first)}, nil
	}

	std, err := ml.FitStandardizer(x)
	if err != nil {
		return localModel{}, err
	}
	z, err := std.TransformAll(x)
	if err != nil {
		return localModel{}, err
	}
	clf, err := newClassifier(cfg.Classifier, cfg.Seed+salt*7919)
	if err != nil {
		return localModel{}, err
	}
	if err := clf.Fit(z, y); err != nil {
		return localModel{}, err
	}
	return localModel{std: std, clf: clf}, nil
}

// Classify predicts white-space availability for a reading taken at loc
// with the given signal features.
func (m *Model) Classify(loc geo.Point, sig features.Signal) (dataset.Label, error) {
	if len(m.locals) == 0 {
		return 0, fmt.Errorf("core: empty model")
	}
	xy := m.proj.ToXY(loc)
	// The three vectors of a classification — features, z-scores and,
	// inside RFFSVM, the kernel row — live on this goroutine's stack: a
	// Model is shared by concurrent callers and keeps no scratch.
	var buf [2][features.MaxDim]float64
	vec, err := m.Features.AppendVector(buf[0][:0], xy, sig)
	if err != nil {
		return 0, err
	}
	idx, _ := kmeans.Nearest(m.centers, vec[:2]) // the planar point, in km
	lm := &m.locals[idx]
	if lm.constant {
		return lm.constantLabel, nil
	}
	z := buf[1][:len(vec)]
	if err := lm.std.TransformInto(z, vec); err != nil {
		return 0, err
	}
	score, err := lm.decisionValue(z)
	if err != nil {
		return 0, err
	}
	// Every family predicts Positive at score ≥ 0; a safety margin
	// raises that bar.
	if score >= m.margin {
		return dataset.LabelSafe, nil
	}
	return dataset.LabelNotSafe, nil
}

// decisionValue scores a z-scored vector. The families a device is sent
// are called on their concrete types, where escape analysis can see z is
// not kept, so it stays on Classify's stack; SMO hands its input to a
// Kernel interface, which would move every caller's z to the heap, and
// gets a copy instead.
func (lm *localModel) decisionValue(z []float64) (float64, error) {
	switch clf := lm.clf.(type) {
	case *svm.RFFSVM:
		return clf.DecisionValue(z)
	case *svm.Pegasos:
		return clf.DecisionValue(z)
	case *bayes.GaussianNB:
		return clf.DecisionValue(z)
	}
	scorer, ok := lm.clf.(ml.DecisionScorer)
	if !ok {
		return 0, fmt.Errorf("core: classifier %T has no decision value", lm.clf)
	}
	return scorer.DecisionValue(append([]float64(nil), z...))
}

// ClassifyReading is a convenience wrapper over Classify.
func (m *Model) ClassifyReading(r dataset.Reading) (dataset.Label, error) {
	return m.Classify(r.Loc, r.Signal)
}
