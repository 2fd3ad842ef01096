package repro

package object core {
  /** The exact and the sampled histogram are one rate-parameterised
    * `HistogramSketch`; these names keep the paper's two vizketches.
    */
  type StreamingHistogramSketch = HistogramSketch
  type SampledHistogramSketch   = HistogramSketch
}
