"""The paper's workload suite and job drivers."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".distributions": ("DurationComponent", "DurationMixture"),
    ".inference": ("InferenceJob", "RequestRecord"),
    ".llm": ("BrownoutConfig", "KVCache", "LLMRequest", "LLMServingJob"),
    ".llm_models": ("LLM_MODELS", "LLMServingModel", "TokenLengths",
                    "get_llm_model"),
    ".models": ("INFERENCE_MODELS", "TRAINING_MODELS", "Trace", "TraceOp",
                "WorkloadKind", "WorkloadModel", "get_model"),
    ".training": ("TrainingJob",),
})
