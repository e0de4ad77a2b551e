"""Multivariate count models built from Pólya splits along a partition
tree, with exact evaluation, sampling, node-wise MLE, and greedy
AIC-driven structure search."""

import logging

from .examples import ten_leaf_example
from .exceptions import (ConvergenceError, DomainError, ParseError,
                         TreePolyaError, UsageError, ValidationError)
from .fit import (FitResult, fit_node_dm, fit_node_multinomial, fit_sum_law,
                  fit_tree, node_data, search_tree, select_node_split)
from .io import (CountMatrix, load_counts_csv, parse_model,
                 serialize_model, write_counts_csv)
from .model import (ChainStage, MarginalChain, PathConstants, TreePolyaModel,
                    absorb_binomials, marginal_pmf, marginal_pmf_vector)
from .polya import (Binomial, Dirac, NegativeBinomial, Poisson, SplitSpec,
                    SumLaw, polya_pmf, polya_uni_pmf,
                    sumlaw_factorial_moment, sumlaw_log_pmf)
from .special import LogValue, ln_gen_factorial, pfq_convergent, \
    pfq_terminating
from .tree import PartitionTree, validate_partition_tree

__version__ = "0.1.0"

# the package logs to "treepolya" and its children (the search: one DEBUG
# record per round from "treepolya.fit"); silent unless the application
# configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())
