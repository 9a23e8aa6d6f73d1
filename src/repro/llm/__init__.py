"""``repro.llm`` — the simulated large-language-model substrate.

Substitutes for the hosted LLMs the paper's case studies use (GPT-3.5/4/4o,
Code Llama 34B, finetuned Verilog models).  See DESIGN.md §1 for why a
capability-profiled stochastic generator preserves the loop-level behaviour
the experiments measure.
"""

from .chat import ChatSession, Message
from .client import LLMClient, resolve_client
from .docqa import (Answer, DocQa, EVAL_QUESTIONS, answer_faithfulness,
                    retrieval_accuracy)
from .faults import (ALL_FAULTS, FaultSpec, fault_by_id, faults_of_class,
                     INTERFACE_FAULTS, LOGIC_FAULTS, SYNTAX_FAULTS)
from .model import (Generation, GenerationTask, SimulatedLLM, UsageStats,
                    make_llm)
from .profiles import ModelProfile
from .prompts import Prompt, PromptEffects, PromptStrategy, prompt_effects
from .rag import Document, Retrieval, VectorIndex, build_template_index
from .registry import (AUTOCHIP_EVAL_MODELS, get_model, list_models,
                       models_by_family)
from .tokenizer import (count_tokens, jaccard_similarity,
                        normalized_levenshtein, ngrams, token_levenshtein,
                        tokenize_text)

__all__ = [
    "ALL_FAULTS", "AUTOCHIP_EVAL_MODELS", "Answer", "ChatSession",
    "DocQa", "Document", "EVAL_QUESTIONS", "answer_faithfulness",
    "retrieval_accuracy",
    "FaultSpec", "Generation", "GenerationTask", "INTERFACE_FAULTS",
    "LLMClient", "LOGIC_FAULTS", "Message", "ModelProfile", "Prompt",
    "PromptEffects", "PromptStrategy", "Retrieval", "SYNTAX_FAULTS",
    "SimulatedLLM", "UsageStats", "VectorIndex", "build_template_index",
    "count_tokens", "fault_by_id", "faults_of_class", "get_model",
    "jaccard_similarity", "list_models", "make_llm", "models_by_family",
    "ngrams", "normalized_levenshtein", "prompt_effects", "resolve_client",
    "token_levenshtein", "tokenize_text",
]
