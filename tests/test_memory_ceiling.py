"""One memory ceiling over every S^n entry, and one S^n energy table.

Each entry that allocates per S^n label charges MEMORY_BUDGET before it
allocates: it is admitted at exactly its charge and refused one byte
below it. energy_table is the one-hot diagonal whatever the register.
"""

import numpy as np
import pytest

from colorperm import simulator
from colorperm.analysis import envelope, phase_profile
from colorperm.hamiltonian import EnergyModel, PenaltyWeights, energy_table
from colorperm.simulator import (
    BYTES_PER_AMPLITUDE,
    EDGE_BYTES,
    AmplitudeBudgetError,
    Schedule,
    apply_phase,
    initial_state,
    run_ansatz,
)

# entry -> (charge per S^n label, a call of it on a model)
ENTRIES = {
    "initial_state": (BYTES_PER_AMPLITUDE, lambda model: initial_state(model.params)),
    "apply_phase": (BYTES_PER_AMPLITUDE, lambda model: apply_phase(initial_state(model.params), 0.3, model)),
    "run_ansatz": (BYTES_PER_AMPLITUDE, lambda model: run_ansatz(model.params, model, Schedule.constant(0.3, 0.8))),
    "phase_profile": (BYTES_PER_AMPLITUDE, lambda model: phase_profile(model, 0.3, [0])),
    "full_distribution": (BYTES_PER_AMPLITUDE, lambda model: envelope(model.params, [0.8]).full_distribution()),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entry_admitted_at_its_charge_and_refused_one_byte_below(exA, monkeypatch, entry):
    # exA: 216 one-hot labels and a 6 x 6 edge matrix
    label_bytes, call = ENTRIES[entry]
    model = EnergyModel.for_instance(exA)
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", label_bytes * 216 + EDGE_BYTES * 36)
    call(model)
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", label_bytes * 216 + EDGE_BYTES * 36 - 1)
    with pytest.raises(AmplitudeBudgetError):
        call(model)


@pytest.mark.parametrize("cap_mode", ["hinge", "filter-only"])
def test_binary_model_table_is_the_onehot_table(exA, cap_mode):
    # exA: 216 one-hot labels, 512 binary labels
    weights = PenaltyWeights(lam_pad=7.0, cap_mode=cap_mode)
    table = energy_table(EnergyModel.for_instance(exA, weights, register="binary"))
    assert table.shape == (216,)
    assert np.array_equal(table, energy_table(EnergyModel.for_instance(exA, weights)))


def test_apply_phase_refuses_a_binary_state(exA, params3):
    binary = EnergyModel.for_instance(exA, register="binary")
    state = run_ansatz(params3, binary, Schedule.constant(0.3, 0.8))
    with pytest.raises(ValueError, match="one-hot"):
        apply_phase(state, 0.1, binary)
