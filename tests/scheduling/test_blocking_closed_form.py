"""The searches' closed-form scores equal the blocking scans they replace.

Both Sec. 3.6.1 searches once scored a candidate by walking the pending
gates with a *blocking* rule: a gate that cannot run blocks its qubits
for every later gate.  They now read the same answer off each gate's
ancestor mask.  The walks live on here, verbatim, as the oracles.
"""

from collections import Counter

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit
from repro.gates import Gate
from repro.scheduling.clustering import _SCAN_LIMIT, _ClusterStep
from repro.scheduling.stages import _CircuitView
from repro.util.bits import bit_mask, mask_bits

#: Gate names by arity, dense and diagonal mixed.
_ONE_QUBIT = ("h", "t", "x_1_2")
_TWO_QUBIT = ("cz", "swap")


def blocking_max_executable(view, fronts, global_mask):
    """The stage finder's old walk over the pending gates."""
    pending = [
        gid for gid in range(view.num_gates) if view.gate_remaining(gid, fronts)
    ]
    fronts = [len(gids) for gids in view.per_qubit]
    executed = []
    stuck = 0
    for gid in pending:
        mask = view.masks[gid]
        if mask & stuck or view.needs_local[gid] & global_mask:
            for q, pos in view.slots[gid]:
                if not stuck >> q & 1:
                    fronts[q] = pos
            stuck |= mask
        else:
            executed.append(gid)
    return executed, fronts


def blocking_scan(masks, remaining, allowed):
    """The clusterer's old scan of one cluster step's window."""
    cluster = []
    blocked = 0
    for pos in remaining[:_SCAN_LIMIT]:
        mask = masks[pos]
        if mask & blocked or mask & ~allowed:
            blocked |= mask
            if not allowed & ~blocked:
                break  # every cluster qubit is blocked: nothing more fits
        else:
            cluster.append(pos)
    return cluster


@st.composite
def circuits(draw):
    n = draw(st.integers(2, 7))
    gates = []
    for _ in range(draw(st.integers(1, 40))):
        if draw(st.booleans()):
            q = draw(st.integers(0, n - 1))
            gates.append(Gate(draw(st.sampled_from(_ONE_QUBIT)), (q,)))
        else:
            a, b = draw(
                st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                         unique=True)
            )
            gates.append(Gate(draw(st.sampled_from(_TWO_QUBIT)), (a, b)))
    return Circuit(n, gates)


class TestStageFinderClosedForm:
    @settings(max_examples=150, deadline=None)
    @given(
        circuits(),
        st.booleans(),
        st.booleans(),
        st.lists(st.integers(0, 2**7 - 1), min_size=1, max_size=8),
    )
    def test_advance_equals_blocking_walk(
        self, circuit, specialize, worst_case_dense, raw_masks
    ):
        """From every fronts a sequence of stages reaches, each mask
        advances and executes exactly what the blocking walk does."""
        view = _CircuitView(
            circuit, specialize=specialize, worst_case_dense=worst_case_dense
        )
        full = (1 << circuit.num_qubits) - 1
        fronts = [0] * circuit.num_qubits
        for raw in raw_masks:
            mask = raw & full
            expected, expected_fronts = blocking_max_executable(view, fronts, mask)
            before = view.evaluations
            count, new_fronts = view.advance(fronts, mask)
            assert (count, new_fronts) == (len(expected), expected_fronts)
            assert view.max_executable(fronts, mask) == (expected, expected_fronts)
            assert view.evaluations == before + 2
            fronts = new_fronts


class TestClusterClimbClosedForm:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 8),
        st.integers(1, 4),
        st.lists(
            st.lists(st.integers(0, 7), min_size=1, max_size=3, unique=True),
            min_size=1, max_size=60,
        ),
        st.data(),
    )
    def test_exchange_scores_equal_scans(self, n, kmax, raw_gates, data):
        """Every exchange's score, and every cluster, equals the scan's."""
        qubits = [tuple(dict.fromkeys(q % n for q in g)) for g in raw_gates]
        masks = [bit_mask(g) for g in qubits]
        remaining = sorted(
            data.draw(st.sets(st.integers(0, len(masks) - 1), min_size=1))
        )
        global_mask = data.draw(st.integers(0, 2**n - 1))
        local = [q for q in range(n) if not global_mask >> q & 1]
        assume(local)
        step = _ClusterStep(
            qubits, masks, remaining, global_mask, kmax, Counter()
        )
        cluster_set = bit_mask(
            data.draw(
                st.lists(st.sampled_from(local), min_size=1,
                         max_size=min(kmax, len(local)), unique=True)
            )
        )
        assert step.cluster(cluster_set) == blocking_scan(
            masks, remaining, cluster_set
        )
        for q_out in mask_bits(cluster_set):
            base = cluster_set & ~(1 << q_out)
            inside, extra = step.exchanges(base)
            assert inside == len(blocking_scan(masks, remaining, base))
            for q_in in range(n):
                if cluster_set >> q_in & 1:
                    continue
                trial = base | (1 << q_in)
                assert inside + extra.get(1 << q_in, 0) == len(
                    blocking_scan(masks, remaining, trial)
                )
