"""Values of the command-line choices, kept apart from the modules that use them.

``critic``, ``corruptor``, ``embeddings``, ``metrics`` and ``retriever``
check their arguments against these, and the parser offers them;
keeping them here lets ``cli`` build its parser without importing any of
those modules (and so without numpy). Each command imports only the
modules it runs.
"""

ANCHOR_SOURCES = ("kn", "history")
BLEU_LEVELS = ("corpus", "sentence")
OPTIMIZERS = ("sgd", "adam")
POLICIES = ("fallback", "drop")
QUERY_MODES = ("oracle", "inferred", "external")
RANK_MODES = ("raw", "filtered")
