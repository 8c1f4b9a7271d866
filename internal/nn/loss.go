package nn

import (
	"fmt"
	"math"

	"hawccc/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy of softmax(logits)
// against integer labels, returning the loss and ∂L/∂logits. logits is
// [N, K]; labels has length N with values in [0, K).
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for %d logits", len(labels), n))
	}
	grad := tensor.New(n, k)
	var loss float64
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		// log-sum-exp for stability
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxV))
		}
		logSum := math.Log(sum) + float64(maxV)
		lbl := labels[i]
		if lbl < 0 || lbl >= k {
			panic(fmt.Sprintf("nn: label %d outside [0, %d)", lbl, k))
		}
		loss += logSum - float64(row[lbl])
		g := grad.Data[i*k : (i+1)*k]
		for j, v := range row {
			g[j] = float32(math.Exp(float64(v)-logSum)) / float32(n)
		}
		g[lbl] -= 1 / float32(n)
	}
	return loss / float64(n), grad
}

// MSELoss computes the mean squared error between pred and target and the
// gradient ∂L/∂pred. Shapes must match.
func MSELoss(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	if pred.NumElems() != target.NumElems() {
		panic(fmt.Sprintf("nn: MSE shape mismatch %v vs %v", pred.Shape, target.Shape))
	}
	grad := tensor.New(pred.Shape...)
	var loss float64
	n := float64(pred.NumElems())
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		loss += float64(d) * float64(d)
		grad.Data[i] = 2 * d / float32(n)
	}
	return loss / n, grad
}

// Argmax returns the index of the largest value in each row of a [N, K]
// tensor.
func Argmax(t *tensor.Tensor) []int {
	n, k := t.Dim(0), t.Dim(1)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		row := t.Data[i*k : (i+1)*k]
		best := 0
		for j, v := range row[1:] {
			if v > row[best] {
				best = j + 1
			}
		}
		out[i] = best
	}
	return out
}
