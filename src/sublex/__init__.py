"""Joint learning of data-driven sub-word units and a pronunciation
dictionary from feature-vector utterances with orthographic transcripts."""

from .acoustic import (AcousticModelSet, em_reestimate, lbg_cluster,
                       split_model_set)
from .corpus import (Corpus, SynthSpec, SyntheticGroundTruth, Utterance,
                     load_corpus, synth_corpus)
from .decoder import (BigramLm, decode_continuous, decode_isolated,
                      load_arpa_bigram, wer)
from .hmm import (DecodeGraph, Dictionary, StatePath, build_graph,
                  force_align, viterbi, viterbi_train_step)
from .mlp import (LabeledFrameSet, MlpModel, PosteriorScorer, TrainConfig,
                  gradient_check, mlp_forward, mlp_train, scaled_loglik)
from .pipeline import (IterationReport, PipelineConfig, evaluate,
                       initialize, run_gmm_stage, run_mlp_stage,
                       run_pipeline)
from .pronunciation import (JointAlignment, MasterUtterance,
                            brute_force_pronunciation,
                            estimate_pronunciation, estimate_pronunciations,
                            joint_viterbi2, update_dictionary)

__version__ = "0.1.0"
