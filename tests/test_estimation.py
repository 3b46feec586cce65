"""Observer updates, the zero conditional mean under symmetric scheduling and
the two-step posterior."""

import math

import numpy as np
import pytest

from macloops.errors import ConfigurationError, ProtocolError
from macloops.estimation import ObserverState, observer_update, two_step_posterior
from macloops.model import LoopConfig, NetworkScenario, PlantModel
from macloops.network import CrmConfig
from macloops.scheduling import SchedulerPolicy
from macloops.sim import monte_carlo
from macloops.stats import TruncatedGaussian, truncated_moments

UNIT_PLANT = PlantModel(A=1.0, B=1.0, Rw=1.0, R0=1.0)
# the observer before step 0: the prior mean and the fictitious initial packet
START = ObserverState(xhat=np.zeros(1), tau=-1, k=-1)


def predict(obs, u_prev):
    """The one-step prediction the engine hands to observer_update."""
    return UNIT_PLANT.A @ obs.xhat + UNIT_PLANT.B @ np.asarray(u_prev, dtype=float)


class TestTauUpdate:
    """observer_update's last-received-packet index tau."""

    @staticmethod
    def after(tau, k, delta):
        obs = ObserverState(xhat=np.array([1.0]), tau=tau, k=k - 1)
        return observer_update(obs, delta, np.array([2.0]) if delta else None,
                               predict(obs, [0.0]))

    def test_initialization(self):
        obs = START
        assert obs.tau == -1
        assert observer_update(obs, 0, None, predict(obs, [0.0])).tau == -1

    def test_delivery_resets(self):
        assert self.after(1, 3, 1).tau == 3

    def test_miss_carries(self):
        assert self.after(1, 3, 0).tau == 1

    def test_validation(self):
        obs = START
        with pytest.raises(ConfigurationError, match="y must have length 1"):
            observer_update(obs, 1, np.array([1.0, 2.0]), predict(obs, [0.0]))


class TestObserverUpdate:
    def test_delivery_takes_the_state(self):
        obs = START
        nxt = observer_update(obs, 1, np.array([2.3]), predict(obs, [0.0]))
        assert nxt.xhat == pytest.approx([2.3])
        assert nxt.tau == 0

    def test_miss_is_pure_prediction(self):
        obs = ObserverState(xhat=np.array([1.0]), tau=0, k=0)
        nxt = observer_update(obs, 0, None, predict(obs, [-0.5]))
        assert nxt.xhat == pytest.approx([0.5])
        assert nxt.tau == 0

    def test_missing_payload_is_a_protocol_error(self):
        obs = START
        with pytest.raises(ProtocolError):
            observer_update(obs, 1, None, predict(obs, [0.0]))

    def test_delay_bookkeeping(self):
        obs = START
        deltas = [0, 0, 1, 0, 1, 1, 0]
        for k, d in enumerate(deltas):
            obs = observer_update(obs, d, np.array([float(k)]) if d else None,
                                  predict(obs, [0.0]))
            assert (obs.tau == obs.k) == bool(d)

    def test_episode_rows_update_independently(self):
        # the engine's form: one row per episode of a chunk
        obs = ObserverState(xhat=np.array([[1.0], [2.0], [3.0]]), tau=np.array([-1, 0, 1]), k=1)
        y = np.array([[7.0], [8.0], [9.0]])
        nxt = observer_update(obs, np.array([0, 1, 0]), y, obs.xhat * 0.5)
        assert np.array_equal(nxt.xhat, [[0.5], [8.0], [1.5]])
        assert np.array_equal(nxt.tau, [-1, 2, 1])
        with pytest.raises(ProtocolError):
            observer_update(obs, np.array([0, 1, 0]), None, obs.xhat)

    def test_error_resets_exactly_on_delivery(self):
        rng = np.random.default_rng(2)
        obs = START
        x = np.array([rng.standard_normal()])
        for k in range(30):
            d = int(rng.random() < 0.4)
            obs = observer_update(obs, d, x if d else None, predict(obs, [0.1]))
            if d:
                assert np.array_equal(obs.xhat, x)
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
        """Per step, the filtered errors of the episodes that kept silent at
        it: one scalar loop, A = B = Rw = R0 = 1, horizon 10, on a certain
        channel, at seed 5 over 20,000 episodes."""
        loop = LoopConfig(plant=UNIT_PLANT, scheduler=scheduler, horizon=10,
                          Q0=1.0, Q1=1.0, Q2=1.0)
        scn = NetworkScenario(loops=(loop,), crm=CrmConfig(persistence=(1.0,)))
        errs, gammas = [], []

        def hook(chunk, traces):
            errs.append(traces[0].errs[..., 0])
            gammas.append(traces[0].gammas)

        monte_carlo(scn, 5, 20_000, trace_hook=hook)
        errs, silent = np.concatenate(errs), np.concatenate(gammas) == 0
        return [errs[silent[:, k], k] for k in range(errs.shape[1])]

    @staticmethod
    def mean_and_se(sample):
        return sample.mean(), sample.std(ddof=1) / math.sqrt(sample.size)

    def test_half_line_rule_biases_the_silent_error(self):
        # the paper's point for asymmetric rules: silence under x >= 0.5 says
        # x0 < 0.5, so the observer's prior mean 0 is off by the mean of a
        # standard normal truncated above at 0.5 (-0.509)
        mean, se = self.mean_and_se(self.silent_errors(SchedulerPolicy.half_line_state(0.5))[0])
        want = truncated_moments(TruncatedGaussian(0.0, 1.0, 0.5))[0]
        assert abs(mean - want) < 4.0 * se
        assert abs(mean) > 10.0 * se

    def test_innovation_rule_keeps_the_silent_error_centred(self):
        # a rule symmetric in the innovation leaves silence uninformative
        # about its sign (Bar-Shalom and Tse, 1974): zero mean at every step
        for k, sample in enumerate(self.silent_errors(SchedulerPolicy.innovation_threshold(3.5))):
            mean, se = self.mean_and_se(sample)
            assert abs(mean) < 3.0 * se, k


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
