"""Benchmark workloads: generator scenario, run configuration, quality floor.

Every workload uses the README propositions and model: `same_device`
(weight 3, 3600 s window) and `same_ip` (3600 s window), K=2, hidden 8,
tau 21600 s, z_hat=(8, 8), lr 0.01, a stratified fraction split with 70%
of each class held out, and fraud over-sampling on. Every scenario has the
README's camouflage rate of 0.3. The workload seed is the generator
seed; the run seed stays 0, as in the README's run.cfg.

The two graph shapes stress different layers, so an optimisation of one
layer moves one workload far more than the other. Both are scaled-down
scenarios, so that one pipeline repeat takes about 2-3 s and a run's
medians pool some twenty repeats spread over the whole run:

- readme-800 is the README scenario (1400 legit, 600 fraud, 10 devices,
  15 ips, 21600 s) scaled by 0.4 in records, devices and ips, which keeps
  the records per device and per ip; 30 epochs of deterministic top-z,
  mean degree about 130. It touches every layer, the sampler is the
  largest share of train and predict, and it is the converged-quality
  reference.
- sparse-2k is imbalanced (4% fraud) over large device and ip pools, so
  mean degree is about 3. Weighted sampling resamples every epoch, and
  each of the 24 mini-batches per epoch runs a full-graph forward and
  backward, so the nn layers dominate and per-node Python overhead
  dominates the sampler. It is a 20k-record scenario (1000 devices, 1500
  ips, batch 256) scaled by 0.1 in records, pools and batch size, which
  keeps degree, batches per epoch and the layers' shares of the time,
  run for 2 epochs.

`auc_floor` is an output check: a run whose held-out AUC falls below it
counts as failed. Floors sit below the lowest AUC seen over 30 seeds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    n_legit: int
    n_fraud: int
    n_devices: int
    n_ips: int
    time_span_seconds: int
    epochs: int
    sampler_mode: str
    auc_floor: float
    batch_size: int = 256


WORKLOADS = {w.name: w for w in (
    Workload("readme-800", n_legit=560, n_fraud=240, n_devices=4, n_ips=6,
             time_span_seconds=21600, epochs=30,
             sampler_mode="deterministic_topz", auc_floor=0.85),
    Workload("sparse-2k", n_legit=1920, n_fraud=80, n_devices=100,
             n_ips=150, time_span_seconds=86400, epochs=2, batch_size=25,
             sampler_mode="weighted_without_replacement", auc_floor=0.80),
    # Smoke-test input only; not listed in BENCHMARK.json.
    Workload("tiny", n_legit=140, n_fraud=60, n_devices=4, n_ips=6,
             time_span_seconds=21600, epochs=2,
             sampler_mode="deterministic_topz", auc_floor=0.5),
)}

PROPOSITIONS = (
    # (name, raw field, weight, window seconds)
    ("same_device", "device", 3, 3600),
    ("same_ip", "ip", 1, 3600),
)
RUN_SEED = 0
TEST_FRACTION = 0.7
