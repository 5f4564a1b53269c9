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

// Apply computes the activation of z.
func (a Activation) Apply(z float64) float64 {
	switch a {
	case ActIdentity:
		return z
	case ActLeakyReLU:
		if z >= 0 {
			return z
		}
		return leakySlope * z
	case ActSigmoid:
		return 1 / (1 + math.Exp(-z))
	case ActTanh:
		return math.Tanh(z)
	case ActReLU:
		if z > 0 {
			return z
		}
		return 0
	default:
		panic(fmt.Sprintf("nn: Apply on invalid %v", a))
	}
}

// Derivative returns da/dz given the pre-activation z and the already
// computed activation value y (some derivatives are cheaper in terms of y).
func (a Activation) Derivative(z, y float64) float64 {
	switch a {
	case ActIdentity:
		return 1
	case ActLeakyReLU:
		if z >= 0 {
			return 1
		}
		return leakySlope
	case ActSigmoid:
		return y * (1 - y)
	case ActTanh:
		return 1 - y*y
	case ActReLU:
		if z > 0 {
			return 1
		}
		return 0
	default:
		panic(fmt.Sprintf("nn: Derivative on invalid %v", a))
	}
}

// applyBias is the training forward's per-row pass with the activation
// switch hoisted out of the loop: z[j] += b[j], then y[j] = Apply(z[j]) —
// the operations Apply performs, in its order.
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
		panic(fmt.Sprintf("nn: Apply on invalid %v", a))
	}
}

// mulDerivative computes dz[i] = g[i] * Derivative(z[i], y[i]) with the
// activation switch hoisted out of the loop. A factor of exactly 1 is not
// multiplied out: g*1 is g bit for bit.
//
//edgeslice:noalloc
func (a Activation) mulDerivative(dz, g, z, y []float64) {
	g = g[:len(dz)]
	z = z[:len(dz)]
	y = y[:len(dz)]
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
		panic(fmt.Sprintf("nn: Derivative on invalid %v", a))
	}
}
