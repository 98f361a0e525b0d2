"""errorlab: synthetic prediction worlds with an exact error decomposition.

Build a data-generating process with known ground truth, corrupt what a
modeler would observe (target noise, feature noise, omission, coarsening,
biased selection), fit models under nested information regimes, and split
prediction error into its epistemic channels and the aleatoric floor.
"""

__version__ = "0.3.0"

from .config import Scenario, parse_config, scenario_to_yaml
from .decomp import (
    BiasVarianceReport,
    CeilingEstimate,
    RepresentativenessReport,
    bias_variance_monte_carlo,
    check_telescoping,
    component_covariances,
    decompose_bundle,
    estimate_ceiling,
    representativeness_probe,
)
from .experiments import (
    AxisLevel,
    CurveConfig,
    GalleryConfig,
    GallerySide,
    InformationAxis,
    LearningCurve,
    LearningCurvePoint,
    PanelScenario,
    PanelsConfig,
    monotone_under_ci,
    regime_gallery,
    run_learning_curve,
    run_panel_scenarios,
)
from .models import (
    FittedModel,
    ModelSpec,
    check_gradients,
    fit,
    fit_regimes,
    model_from_json,
    model_to_json,
    predict,
)
from .worldgen import (
    AleatoricSpec,
    FeatureNoiseSpec,
    SampleBundle,
    SelectionSpec,
    TargetNoiseSpec,
    TrueFunctionSpec,
    World,
    XDistributionSpec,
    build_world,
    sample,
    verify_bundle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
