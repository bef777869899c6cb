"""Additive-precision Born-rule estimators and epsilon-samplers."""

from .circuits import (Circuit, CircuitSyntaxError, EncodedCircuit, IqpCircuit,
                       OutcomePattern, ProdCircuit, ce_encode, parse_circuit,
                       parse_pattern)
from .oracle import (ExactDistribution, OracleLimitError, exact_distribution,
                     exact_probability, l1_distance, min_sparsity)
from .polybox import (CePolyBox, Estimate, IqpPolyBox, OraclePolyBox,
                      ProdPolyBox, auto_polybox, hoeffding_samples)
from .samplers import (SparsityPolynomial, cdf_bitwise_sample, chain_sample,
                       epsilon_simulate, heavy_prefixes, survivor_cap,
                       survivor_distribution)
from .stabcore import (CliffordTableau, GateApp, PauliOperator, ProductState,
                       inverse_tableau, product_expectation, pull_back,
                       symplectic_group_order, tableau_from_gates)
from .experiments import (anticoncentration_bound, anticoncentration_report,
                          bob_epsilon_schedule, corrupted_distribution,
                          optimal_single_round_pcorrect, run_hypothesis_test,
                          scheduled_bob_distribution, sparsity_profile)

__version__ = "0.1.0"
