package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/ml"
	"github.com/wsdetect/waldo/internal/ml/bayes"
	"github.com/wsdetect/waldo/internal/ml/svm"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// Model descriptor wire format (little-endian). The descriptor is what a
// WSD downloads per channel per area (§5 measures NB ≈ 4 kB vs SVM ≈ 40 kB
// with OpenCV's text serialization; this binary codec is denser but keeps
// the same NB ≪ SVM ordering because SVM descriptors carry the feature map
// or support vectors).
var modelMagic = [4]byte{'W', 'L', 'D', 'M'}

const codecVersion uint16 = 1

// kernel tags for KindSVMExact serialization.
const (
	kernelTagLinear uint8 = 1
	kernelTagRBF    uint8 = 2
	kernelTagPoly   uint8 = 3
)

// EncodeModel serializes a trained model to w.
func EncodeModel(w io.Writer, m *Model) error {
	if m == nil || len(m.locals) == 0 {
		return fmt.Errorf("core: cannot encode an empty model")
	}
	var buf bytes.Buffer
	buf.Write(modelMagic[:])
	writeU16(&buf, codecVersion)
	writeU16(&buf, uint16(m.Channel))
	buf.WriteByte(byte(m.Sensor))
	buf.WriteByte(byte(m.Features))
	buf.WriteByte(byte(m.Kind))
	writeU16(&buf, uint16(len(m.locals)))
	writeF64(&buf, m.Origin.Lat)
	writeF64(&buf, m.Origin.Lon)
	writeF64(&buf, m.margin)

	for i := range m.locals {
		writeF64(&buf, m.centers[i][0])
		writeF64(&buf, m.centers[i][1])
		lm := &m.locals[i]
		if lm.constant {
			buf.WriteByte(0)
			buf.WriteByte(byte(lm.constantLabel))
			continue
		}
		buf.WriteByte(1)
		mean, scale := lm.std.Params()
		writeU16(&buf, uint16(len(mean)))
		writeF64s(&buf, mean)
		writeF64s(&buf, scale)
		if err := encodeClassifier(&buf, m.Kind, lm.clf); err != nil {
			return fmt.Errorf("core: locality %d: %w", i, err)
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// EncodedSize returns the descriptor size in bytes.
func EncodedSize(m *Model) (int, error) {
	var buf bytes.Buffer
	if err := EncodeModel(&buf, m); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}

func encodeClassifier(buf *bytes.Buffer, kind ClassifierKind, clf ml.Classifier) error {
	switch kind {
	case KindNB:
		nb, ok := clf.(*bayes.GaussianNB)
		if !ok {
			return fmt.Errorf("classifier kind/type mismatch: %T", clf)
		}
		prior, mean, variance, err := nb.Model()
		if err != nil {
			return err
		}
		writeF64(buf, prior[0])
		writeF64(buf, prior[1])
		writeU32(buf, uint32(len(mean[0])))
		for c := 0; c < 2; c++ {
			writeF64s(buf, mean[c])
			writeF64s(buf, variance[c])
		}
		return nil

	case KindLinearSVM:
		lin, ok := clf.(*svm.Pegasos)
		if !ok {
			return fmt.Errorf("classifier kind/type mismatch: %T", clf)
		}
		w, b, err := lin.Model()
		if err != nil {
			return err
		}
		writeU32(buf, uint32(len(w)))
		writeF64s(buf, w)
		writeF64(buf, b)
		return nil

	case KindSVM:
		rsvm, ok := clf.(*svm.RFFSVM)
		if !ok {
			return fmt.Errorf("classifier kind/type mismatch: %T", clf)
		}
		rff, w, b, err := rsvm.Model()
		if err != nil {
			return err
		}
		rw, rb := rff.Params()
		writeU32(buf, uint32(len(rw)))
		writeU32(buf, uint32(len(rw[0])))
		for _, row := range rw {
			writeF64s(buf, row)
		}
		writeF64s(buf, rb)
		writeF64s(buf, w)
		writeF64(buf, b)
		return nil

	case KindSVMExact:
		s, ok := clf.(*svm.SMO)
		if !ok {
			return fmt.Errorf("classifier kind/type mismatch: %T", clf)
		}
		if err := encodeKernel(buf, s.Kernel); err != nil {
			return err
		}
		sv, coef, b, err := s.Model()
		if err != nil {
			return err
		}
		writeU32(buf, uint32(len(sv)))
		writeU32(buf, uint32(len(sv[0])))
		for _, row := range sv {
			writeF64s(buf, row)
		}
		writeF64s(buf, coef)
		writeF64(buf, b)
		return nil

	default:
		return fmt.Errorf("unsupported classifier kind %v", kind)
	}
}

func encodeKernel(buf *bytes.Buffer, k svm.Kernel) error {
	switch kk := k.(type) {
	case svm.Linear:
		buf.WriteByte(kernelTagLinear)
		writeF64(buf, 0)
		writeU16(buf, 0)
		writeF64(buf, 0)
	case svm.RBF:
		buf.WriteByte(kernelTagRBF)
		writeF64(buf, kk.Gamma)
		writeU16(buf, 0)
		writeF64(buf, 0)
	case svm.Poly:
		buf.WriteByte(kernelTagPoly)
		writeF64(buf, 0)
		writeU16(buf, uint16(kk.Degree))
		writeF64(buf, kk.Coef)
	default:
		return fmt.Errorf("unsupported kernel %T", k)
	}
	return nil
}

// DecodeModel reads a model descriptor.
func DecodeModel(r io.Reader) (*Model, error) {
	d := &decoder{r: r}
	var magic [4]byte
	d.bytes(magic[:])
	if d.err != nil || magic != modelMagic {
		return nil, fmt.Errorf("core: bad model magic %v", magic)
	}
	if v := d.u16(); v != codecVersion {
		return nil, fmt.Errorf("core: unsupported descriptor version %d", v)
	}
	ch := rfenv.Channel(d.u16())
	sens := sensor.Kind(d.byte())
	fset := features.Set(d.byte())
	kind := ClassifierKind(d.byte())
	k := int(d.u16())
	origin := geo.Point{Lat: d.f64(), Lon: d.f64()}
	margin := d.f64()
	if d.err != nil {
		return nil, fmt.Errorf("core: decode header: %w", d.err)
	}
	if !ch.Valid() || !fset.Valid() || !kind.Valid() || k < 1 || !origin.Valid() || margin < 0 || math.IsNaN(margin) {
		return nil, fmt.Errorf("core: invalid descriptor header (ch=%d features=%d kind=%d k=%d margin=%v)",
			ch, fset, kind, k, margin)
	}
	if _, err := sensor.SpecFor(sens); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	m := &Model{
		Channel:  ch,
		Sensor:   sens,
		Features: fset,
		Kind:     kind,
		Origin:   origin,
		margin:   margin,
		proj:     geo.NewProjector(origin),
	}
	for i := 0; i < k; i++ {
		center := []float64{d.f64(), d.f64()}
		flag := d.byte()
		if d.err != nil {
			return nil, fmt.Errorf("core: locality %d: %w", i, d.err)
		}
		// A NaN center is never nearest: its area goes to other localities.
		if !finite(center[0]) || !finite(center[1]) {
			return nil, fmt.Errorf("core: locality %d: center %v", i, center)
		}
		m.centers = append(m.centers, center)
		if flag == 0 {
			label := dataset.Label(d.byte())
			if label != dataset.LabelSafe && label != dataset.LabelNotSafe {
				return nil, fmt.Errorf("core: locality %d: invalid constant label %d", i, label)
			}
			m.locals = append(m.locals, localModel{constant: true, constantLabel: label})
			continue
		}
		// Every dimension is the feature set's: Classify cannot fail.
		dim := int(d.u16())
		if d.err == nil && dim != fset.Dim() {
			return nil, fmt.Errorf("core: locality %d: standardizer dim %d for %v", i, dim, fset)
		}
		mean := d.f64s(dim)
		scale := d.f64s(dim)
		if d.err != nil {
			return nil, fmt.Errorf("core: locality %d standardizer: %w", i, d.err)
		}
		std, err := ml.NewStandardizerFromParams(mean, scale)
		if err != nil {
			return nil, fmt.Errorf("core: locality %d: %w", i, err)
		}
		clf, err := decodeClassifier(d, kind, dim)
		if err != nil {
			return nil, fmt.Errorf("core: locality %d classifier: %w", i, err)
		}
		m.locals = append(m.locals, localModel{std: std, clf: clf})
	}
	return m, nil
}

// decodeClassifier reads one locality's classifier for dim-long inputs.
func decodeClassifier(d *decoder, kind ClassifierKind, dim int) (ml.Classifier, error) {
	switch kind {
	case KindNB:
		var prior [2]float64
		prior[0] = d.f64()
		prior[1] = d.f64()
		if n := int(d.u32()); d.err != nil || n != dim {
			return nil, fmt.Errorf("bad NB dim %d: %w", n, d.err)
		}
		var mean, variance [2][]float64
		for c := 0; c < 2; c++ {
			mean[c] = d.f64s(dim)
			variance[c] = d.f64s(dim)
		}
		if d.err != nil {
			return nil, d.err
		}
		nb := &bayes.GaussianNB{}
		if err := nb.SetModel(prior, mean, variance); err != nil {
			return nil, err
		}
		return nb, nil

	case KindLinearSVM:
		n := int(d.u32())
		if d.err != nil || n != dim {
			return nil, fmt.Errorf("bad weight count %d: %w", n, d.err)
		}
		w := d.f64s(n)
		b := d.f64()
		if d.err != nil {
			return nil, d.err
		}
		lin := &svm.Pegasos{}
		if err := lin.SetModel(w, b); err != nil {
			return nil, err
		}
		return lin, nil

	case KindSVM:
		rows := int(d.u32())
		cols := int(d.u32())
		if d.err != nil || rows < 1 || rows > 1<<16 || cols != dim {
			return nil, fmt.Errorf("bad RFF shape %dx%d: %w", rows, cols, d.err)
		}
		rw := make([][]float64, rows)
		for i := range rw {
			rw[i] = d.f64s(cols)
		}
		rb := d.f64s(rows)
		w := d.f64s(rows)
		b := d.f64()
		if d.err != nil {
			return nil, d.err
		}
		rff, err := svm.NewRFFFromParams(rw, rb)
		if err != nil {
			return nil, err
		}
		rsvm := &svm.RFFSVM{}
		if err := rsvm.SetModel(rff, w, b); err != nil {
			return nil, err
		}
		return rsvm, nil

	case KindSVMExact:
		tag := d.byte()
		gamma := d.f64()
		degree := int(d.u16())
		coef := d.f64()
		var name string
		switch tag {
		case kernelTagLinear:
			name = "linear"
		case kernelTagRBF:
			name = "rbf"
		case kernelTagPoly:
			name = "poly"
		default:
			return nil, fmt.Errorf("bad kernel tag %d", tag)
		}
		kern, err := svm.KernelByName(name, gamma, degree, coef)
		if err != nil {
			return nil, err
		}
		nsv := int(d.u32())
		svDim := int(d.u32())
		if d.err != nil || nsv < 1 || nsv > 1<<20 || svDim != dim {
			return nil, fmt.Errorf("bad SV shape %dx%d: %w", nsv, svDim, d.err)
		}
		sv := make([][]float64, nsv)
		for i := range sv {
			sv[i] = d.f64s(dim)
		}
		coefs := d.f64s(nsv)
		b := d.f64()
		if d.err != nil {
			return nil, d.err
		}
		s := &svm.SMO{Kernel: kern}
		if err := s.SetModel(sv, coefs, b); err != nil {
			return nil, err
		}
		return s, nil

	default:
		return nil, fmt.Errorf("unsupported classifier kind %v", kind)
	}
}

// --- primitive helpers ---

func writeU16(buf *bytes.Buffer, v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	buf.Write(b[:])
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func writeF64(buf *bytes.Buffer, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	buf.Write(b[:])
}

func writeF64s(buf *bytes.Buffer, vs []float64) {
	for _, v := range vs {
		writeF64(buf, v)
	}
}

// decoder wraps sticky-error reads.
type decoder struct {
	r   io.Reader
	err error
}

func (d *decoder) bytes(p []byte) {
	if d.err != nil {
		return
	}
	_, d.err = io.ReadFull(d.r, p)
}

func (d *decoder) byte() byte {
	var b [1]byte
	d.bytes(b[:])
	return b[0]
}

func (d *decoder) u16() uint16 {
	var b [2]byte
	d.bytes(b[:])
	return binary.LittleEndian.Uint16(b[:])
}

func (d *decoder) u32() uint32 {
	var b [4]byte
	d.bytes(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (d *decoder) f64() float64 {
	var b [8]byte
	d.bytes(b[:])
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

func (d *decoder) f64s(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}
