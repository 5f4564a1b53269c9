package nn

import (
	"fmt"
	"math"
)

func mathSqrt(x float64) float64 { return math.Sqrt(x) }

// Activation identifies an element-wise activation function. The zero value
// is invalid; enums start at one per the style guide.
type Activation int

// Supported activations. The paper's agents use Leaky ReLU hidden layers and
// a sigmoid output layer (Sec. VI-A); tanh and identity are needed by the
// PPO/TRPO/VPG/SAC comparison trainers.
const (
	ActIdentity Activation = iota + 1
	ActLeakyReLU
	ActSigmoid
	ActTanh
	ActReLU
)

// leakySlope is the negative-side slope of the Leaky Rectifier, matching the
// common default (Maas et al., 2013) used by TF 1.x's leaky_relu.
const leakySlope = 0.2

// String returns the canonical name, used in weight serialization.
func (a Activation) String() string {
	switch a {
	case ActIdentity:
		return "identity"
	case ActLeakyReLU:
		return "leaky_relu"
	case ActSigmoid:
		return "sigmoid"
	case ActTanh:
		return "tanh"
	case ActReLU:
		return "relu"
	default:
		return fmt.Sprintf("activation(%d)", int(a))
	}
}

// ParseActivation is the inverse of String.
func ParseActivation(s string) (Activation, error) {
	switch s {
	case "identity":
		return ActIdentity, nil
	case "leaky_relu":
		return ActLeakyReLU, nil
	case "sigmoid":
		return ActSigmoid, nil
	case "tanh":
		return ActTanh, nil
	case "relu":
		return ActReLU, nil
	default:
		return 0, fmt.Errorf("nn: unknown activation %q", s)
	}
}

// blend gives the piecewise-linear activations as the AVX kernels take
// them. Forward, act(v) is the larger of v and v·slope with the bits outside
// keep cleared: ReLU's cleared product is the +0 the scalar loop assigns,
// whatever v·0 would be (−0, or NaN for ±Inf and NaN). Backward, the
// derivative is 1 where z >= thresh, else slope: ReLU's strict z > 0 is z >=
// the smallest subnormal.
func (a Activation) blend() (thresh, slope float64, keep uint64, ok bool) {
	switch a {
	case ActIdentity:
		return 0, 1, ^uint64(0), true
	case ActLeakyReLU:
		return 0, leakySlope, ^uint64(0), true
	case ActReLU:
		return math.SmallestNonzeroFloat64, 0, 0, true
	}
	return 0, 0, 0, false
}

// derivForm is the form mulDerivAVX takes a's derivative in — 0 blend's
// compare on z, 1 sigmoid and 2 tanh on y — or -1: identity is a copy.
func (a Activation) derivForm() int {
	switch a {
	case ActLeakyReLU, ActReLU:
		return 0
	case ActSigmoid:
		return 1
	case ActTanh:
		return 2
	}
	return -1
}

// biasAct is the one bias + activation pass behind Dense.Forward and
// Dense.forwardInfer: for every row of z, z[j] += b[j] and y[j] =
// act(z[j]). y may be z itself. The piecewise-linear activations run the
// whole matrix in one AVX kernel call; sigmoid and tanh stay on applyBias
// everywhere, because math.Exp and math.Tanh have no bit-identical vector
// form.
//
//edgeslice:noalloc
func (a Activation) biasAct(z, y *Matrix, b []float64) {
	if _, slope, keep, ok := a.blend(); ok && useAVX && len(z.Data) > 0 {
		_, _ = y.Data[len(z.Data)-1], b[z.Cols-1]
		biasActAVX(&z.Data[0], &y.Data[0], &b[0], z.Rows, z.Cols, slope, keep)
		return
	}
	for i := 0; i < z.Rows; i++ {
		a.applyBias(z.Row(i), y.Row(i), b)
	}
}

// applyBias is biasAct's scalar row, with the activation switch hoisted
// out of the loop: z[j] += b[j], then y[j] = act(z[j]). y may be z: y[j] is
// stored after z[j].
//
//edgeslice:noalloc
func (a Activation) applyBias(z, y, b []float64) {
	y = y[:len(z)]
	b = b[:len(z)]
	switch a {
	case ActIdentity:
		for j, v := range z {
			v += b[j]
			z[j], y[j] = v, v
		}
	case ActLeakyReLU:
		for j, v := range z {
			v += b[j]
			z[j] = v
			if !(v >= 0) {
				v *= leakySlope
			}
			y[j] = v
		}
	case ActSigmoid:
		for j, v := range z {
			v += b[j]
			z[j], y[j] = v, 1/(1+math.Exp(-v))
		}
	case ActTanh:
		for j, v := range z {
			v += b[j]
			z[j], y[j] = v, math.Tanh(v)
		}
	case ActReLU:
		for j, v := range z {
			v += b[j]
			z[j] = v
			if !(v > 0) {
				v = 0
			}
			y[j] = v
		}
	default:
		panic(fmt.Sprintf("nn: activation of invalid %v", a))
	}
}

// mulDerivative computes dz[i] = g[i] · act'(z[i]), in terms of the
// activation y[i] where that is cheaper (sigmoid, tanh), with the
// activation switch hoisted out of the loop. A factor of exactly 1 is not
// multiplied out: g*1 is g bit for bit.
//
//edgeslice:noalloc
func (a Activation) mulDerivative(dz, g, z, y []float64) {
	g = g[:len(dz)]
	z = z[:len(dz)]
	y = y[:len(dz)]
	if form := a.derivForm(); form >= 0 && useAVX && len(dz) > 0 {
		thresh, slope, _, _ := a.blend()
		mulDerivAVX(&dz[0], &g[0], &z[0], &y[0], len(dz), form, thresh, slope)
		return
	}
	switch a {
	case ActIdentity:
		copy(dz, g)
	case ActLeakyReLU:
		for i, v := range g {
			if !(z[i] >= 0) {
				v *= leakySlope
			}
			dz[i] = v
		}
	case ActSigmoid:
		for i, v := range g {
			dz[i] = v * (y[i] * (1 - y[i]))
		}
	case ActTanh:
		for i, v := range g {
			dz[i] = v * (1 - y[i]*y[i])
		}
	case ActReLU:
		for i, v := range g {
			if !(z[i] > 0) {
				v *= 0
			}
			dz[i] = v
		}
	default:
		panic(fmt.Sprintf("nn: derivative of invalid %v", a))
	}
}
