"""Known-bad fixture: impure / unpicklable executor submissions."""

from concurrent.futures import ProcessPoolExecutor

RESULTS: dict = {}


def _impure_worker(spec) -> None:
    RESULTS[spec.trial_id] = spec.run()         # pool-worker-globals


def _store_result(spec) -> None:
    RESULTS[spec.trial_id] = spec.run()         # pool-worker-globals


def _delegating_worker(spec) -> None:
    _store_result(spec)


class Runner:
    def run_all(self, specs) -> None:
        with ProcessPoolExecutor() as pool:
            pool.submit(lambda: specs[0])       # pool-submit-module-fn

            def nested(spec):
                return spec

            pool.submit(nested, specs[0])       # pool-submit-module-fn
            pool.submit(self.run_all, specs)    # pool-submit-module-fn
            pool.submit(_impure_worker, specs[0])
            pool.submit(_delegating_worker, specs[0])
