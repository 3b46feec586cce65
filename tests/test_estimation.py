"""Observer updates, delivery ages, the zero conditional mean under symmetric scheduling and
the two-step posterior."""

import math

import numpy as np
import pytest

from macloops.errors import ConfigurationError
from macloops.estimation import last_delivery, observer_update, two_step_posterior
from macloops.model import LoopConfig, NetworkScenario, PlantModel
from macloops.network import CrmConfig
from macloops.scheduling import SchedulerPolicy
from macloops.sim import monte_carlo
from macloops.stats import TruncatedGaussian, truncated_moments

UNIT_PLANT = PlantModel(A=1.0, B=1.0, Rw=1.0, R0=1.0)


def predict(xhat, u_prev):
    """The one-step prediction the engine hands to observer_update."""
    return UNIT_PLANT.A @ xhat + UNIT_PLANT.B @ np.asarray(u_prev, dtype=float)


class TestTauUpdate:
    """last_delivery's last-received-packet index tau."""

    def test_initialization(self):
        # no delivery yet: the fictitious initial packet at k = -1
        assert np.array_equal(last_delivery(np.array([0])), [-1])
        assert np.array_equal(last_delivery(np.array([0, 0, 0])), [-1, -1, -1])

    def test_delivery_resets(self):
        assert last_delivery(np.array([0, 1, 0, 1]))[3] == 3

    def test_miss_carries(self):
        assert last_delivery(np.array([0, 1, 0, 0]))[3] == 1


class TestObserverUpdate:
    def test_delivery_takes_the_state(self):
        xhat = observer_update(1, np.array([2.3]), predict(np.zeros(1), [0.0]))
        assert xhat == pytest.approx([2.3])

    def test_miss_is_pure_prediction(self):
        xhat = observer_update(0, np.array([7.0]), predict(np.array([1.0]), [-0.5]))
        assert xhat == pytest.approx([0.5])

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="y must have length 1"):
            observer_update(1, np.array([1.0, 2.0]), predict(np.zeros(1), [0.0]))

    def test_delay_bookkeeping(self):
        deltas = np.array([0, 0, 1, 0, 1, 1, 0])
        taus = last_delivery(deltas)
        for k, d in enumerate(deltas):
            assert (taus[k] == k) == bool(d)
        # the engine's form: episode rows along the leading axes
        rows = np.array([[deltas, 1 - deltas]])
        assert np.array_equal(last_delivery(rows), [[taus, [0, 1, 1, 3, 3, 3, 6]]])

    def test_episode_rows_update_independently(self):
        # the engine's form: one row per episode of a chunk
        pred = np.array([[0.5], [1.0], [1.5]])
        y = np.array([[7.0], [8.0], [9.0]])
        xhat = observer_update(np.array([0, 1, 0]), y, pred)
        assert np.array_equal(xhat, [[0.5], [8.0], [1.5]])

    def test_error_resets_exactly_on_delivery(self):
        rng = np.random.default_rng(2)
        xhat = np.zeros(1)
        x = np.array([rng.standard_normal()])
        for k in range(30):
            d = int(rng.random() < 0.4)
            pred = predict(xhat, [0.1])
            xhat = observer_update(d, x, pred)
            assert np.array_equal(xhat, x if d else pred)
            x = UNIT_PLANT.A @ x + UNIT_PLANT.B @ [0.1] + rng.standard_normal(1)


class TestConditionalMeanUnderSymmetricScheduling:
    def test_silent_steps_have_zero_mean_innovation(self):
        # rejection oracle over ~1e6 silent steps, scalar random walk
        eps = 2.0
        rng = np.random.default_rng(99)
        chains, steps = 200_000, 8
        e = rng.standard_normal(chains)
        silent_samples = []
        for _ in range(steps):
            silent = e * e <= eps
            silent_samples.append(e[silent])
            e = np.where(silent, e, 0.0) + rng.standard_normal(chains)
        sample = np.concatenate(silent_samples)
        assert sample.size > 1_000_000
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean()) < 3.0 * se

    @staticmethod
    def silent_errors(scheduler):
        """Per step, the filtered errors and the predictions of the episodes
        that kept silent at it, where the estimate is the prediction: one
        scalar loop, A = B = Rw = R0 = 1, horizon 10, on a certain channel,
        at seed 5 over 20,000 episodes."""
        loop = LoopConfig(plant=UNIT_PLANT, scheduler=scheduler, horizon=10,
                          Q0=1.0, Q1=1.0, Q2=1.0)
        scn = NetworkScenario(loops=(loop,), crm=CrmConfig(persistence=(1.0,)))
        errs, preds, gammas = [], [], []

        def hook(chunk, traces):
            errs.append(traces[0].errs[..., 0])
            preds.append(traces[0].xhats[..., 0])
            gammas.append(traces[0].gammas)

        monte_carlo(scn, 5, 20_000, trace_hook=hook)
        errs, preds = np.concatenate(errs), np.concatenate(preds)
        silent = np.concatenate(gammas) == 0
        return [(errs[silent[:, k], k], preds[silent[:, k], k]) for k in range(errs.shape[1])]

    @staticmethod
    def mean_and_se(sample):
        return sample.mean(), sample.std(ddof=1) / math.sqrt(sample.size)

    def test_half_line_rule_biases_the_silent_error(self):
        # the paper's point for asymmetric rules: silence under x >= 0.5 says
        # x0 < 0.5, so the observer's prior mean 0 is off by the mean of a
        # standard normal truncated above at 0.5 (-0.509)
        errs, _ = self.silent_errors(SchedulerPolicy.half_line_state(0.5))[0]
        mean, se = self.mean_and_se(errs)
        want = truncated_moments(TruncatedGaussian(0.0, 1.0, 0.5))[0]
        assert abs(mean - want) < 4.0 * se
        assert abs(mean) > 10.0 * se

    def test_innovation_rule_keeps_the_silent_error_centred(self):
        # a rule symmetric in the innovation leaves silence uninformative
        # about its sign (Bar-Shalom and Tse, 1974): zero mean at every step
        steps = self.silent_errors(SchedulerPolicy.innovation_threshold(3.5))
        for k, (errs, _) in enumerate(steps):
            mean, se = self.mean_and_se(errs)
            assert abs(mean) < 3.0 * se, k

    def test_state_rule_pulls_the_silent_error_against_the_prediction(self):
        # silence under |x|^2 <= 1 says the state lies in [-1, 1], wherever
        # the prediction is: a rule that is not symmetric in the innovation
        # makes the prediction a biased estimate, too far from 0 on either side
        steps = self.silent_errors(SchedulerPolicy.state_threshold(1.0))
        for k, (errs, preds) in enumerate(steps[1:], start=1):
            for sign in (1.0, -1.0):
                mean, se = self.mean_and_se(errs[sign * preds > 0.0])
                assert sign * mean < 0.0, (k, sign)
                assert abs(mean) > 10.0 * se, (k, sign)


class TestTwoStepPosterior:
    def test_delivery_branch_is_exact(self):
        post = two_step_posterior(1.0, 1.0, 0.0, 1, 1, x0=0.7)
        assert post.p00 == 0.0 and post.p11 == 0.0
        assert post.xbar0 == 0.7

    def test_silent_first_step_variance(self):
        post = two_step_posterior(1.0, 1.0, 0.0, 0, 1)
        assert post.p00 == pytest.approx(0.4861754356963671, abs=1e-9)
        assert post.p11 == 0.0

    def test_delivery_then_silence_reduces_to_truncation(self):
        post = two_step_posterior(1.0, 1.0, 0.0, 1, 0, x0=0.0)
        want_mean, want_var = truncated_moments(TruncatedGaussian(0.0, 1.0, 0.5))
        assert post.ebar1 == pytest.approx(want_mean, abs=1e-12)
        assert post.p11 == pytest.approx(want_var, abs=1e-12)
        assert post.xhat11 == pytest.approx(want_mean, abs=1e-12)

    def test_double_silence_against_rejection_oracle(self):
        u0 = 0.3
        post = two_step_posterior(1.0, 1.0, u0, 0, 0)
        rng = np.random.default_rng(12)
        x = rng.standard_normal(4_000_000)
        x = x[x < 0.5]
        e = x + rng.standard_normal(x.size)
        e = e[e < 0.5 - u0]
        se_mean = e.std(ddof=1) / math.sqrt(e.size)
        assert abs(post.ebar1 - e.mean()) < 3.0 * se_mean
        centered = (e - e.mean()) ** 2
        se_var = centered.std(ddof=1) / math.sqrt(e.size)
        assert abs(post.p11 - e.var(ddof=1)) < 3.0 * se_var

    def test_x0_required_on_delivery_branch(self):
        with pytest.raises(ConfigurationError):
            two_step_posterior(1.0, 1.0, 0.0, 1, 0)


class TestTwoStepPosteriorBoundary:
    """The posterior takes its scalars by the two-step solver's rule, and names a bad one."""

    @pytest.mark.parametrize("field,value", [
        ("a", "1"), ("b", None), ("u0", True), ("threshold", [0.5]), ("x0", "0.5"), ("x0", None),
        ("delta0", True), ("delta0", 2), ("delta1", True), ("delta1", -1),
        pytest.param("a", 10 ** 400, id="a-10**400"),
    ])
    def test_bad_scalar_names_its_field(self, field, value):
        args = dict(a=1.0, b=1.0, u0=0.0, delta0=1, delta1=0, x0=0.5)
        with pytest.raises(ConfigurationError) as info:
            two_step_posterior(**{**args, field: value})
        assert info.value.field == field

    def test_numeric_scalars_are_taken_as_their_values(self):
        post = two_step_posterior(np.float64(1.0), 1, 0, 1.0, np.int64(0), x0=np.float64(0.7))
        assert (type(post.a), type(post.delta0), type(post.delta1), type(post.xbar0)) \
            == (float, int, int, float)
        assert post == two_step_posterior(1.0, 1.0, 0.0, 1, 0, x0=0.7)
