"""Values of the command-line choices whose users need numpy.

``corruptor``, ``embeddings`` and ``retriever`` check their configs
against these, and the parser offers them; keeping them here lets
``cli`` build its parser without importing numpy.
"""

OPTIMIZERS = ("sgd", "adam")
POLICIES = ("fallback", "drop")
QUERY_MODES = ("oracle", "inferred", "external")
RANK_MODES = ("raw", "filtered")
